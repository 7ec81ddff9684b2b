// SHA-1 compression bodies behind Sha1Stream (internal).
//
// Sha1Stream hands every run of whole 64-byte blocks to one compression
// call. Two bodies exist: the portable FIPS-180-1 round loop, built on every
// architecture, and an x86-64 SHA-NI body (sha1rnds4/sha1nexte/sha1msg1/
// sha1msg2). The active one is picked once per process from CPUID; there is
// no knob. The portable body stays the differential oracle for the hardware
// one (tests/test_sha1.cpp), and benches record which path produced a number.
#pragma once

#include <cstddef>
#include <cstdint>

namespace flux::sha1_internal {

/// Compress `nblocks` consecutive 64-byte blocks into the state `h`.
void compress_portable(std::uint32_t h[5], const std::uint8_t* blocks,
                       std::size_t nblocks) noexcept;

#if defined(__x86_64__)
/// SHA-NI body. Only call it when sha1_hardware() is true.
void compress_shani(std::uint32_t h[5], const std::uint8_t* blocks,
                    std::size_t nblocks) noexcept;
#endif

/// True iff this CPU has SHA-NI (plus SSSE3/SSE4.1) and Sha1Stream uses it.
bool sha1_hardware() noexcept;

/// The active path's name for bench metadata: "sha-ni" or "portable".
inline const char* sha1_path() noexcept {
  return sha1_hardware() ? "sha-ni" : "portable";
}

}  // namespace flux::sha1_internal
