#include "hash/sha1.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "base/hex.hpp"
#include "hash/sha1_compress.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace flux {

namespace sha1_internal {

namespace {
inline std::uint32_t rotl32(std::uint32_t x, int n) noexcept {
  return (x << n) | (x >> (32 - n));
}
}  // namespace

void compress_portable(std::uint32_t h[5], const std::uint8_t* blocks,
                       std::size_t nblocks) noexcept {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    std::uint32_t w[80];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(blocks[i * 4]) << 24) |
             (static_cast<std::uint32_t>(blocks[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(blocks[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(blocks[i * 4 + 3]);
    }
    for (int i = 16; i < 80; ++i)
      w[i] = rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);

    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    for (int i = 0; i < 80; ++i) {
      std::uint32_t f, k;
      if (i < 20) {
        f = (b & c) | ((~b) & d);
        k = 0x5A827999u;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1u;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDCu;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6u;
      }
      const std::uint32_t tmp = rotl32(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = rotl32(b, 30);
      b = a;
      a = tmp;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
  }
}

#if defined(__x86_64__)

#define FLUX_SHA_TARGET __attribute__((target("sha,sse4.1")))

namespace {

// Rounds 4G..4G+3. `m[G % 4]` holds message words W[4G..4G+3]; the other
// three registers carry the schedule for the next quads: sha1msg1 starts
// W[4G+12..], the xor folds into W[4G+8..] and sha1msg2 finishes
// W[4G+4..]. `e[G % 2]` holds the E operand for this quad; the other slot
// receives ABCD before the rounds, which becomes the next quad's E.
template <int G>
FLUX_SHA_TARGET inline void quad(__m128i& abcd, __m128i (&e)[2],
                                 __m128i (&m)[4]) {
  const __m128i msg = m[G % 4];
  if constexpr (G == 0)
    e[0] = _mm_add_epi32(e[0], msg);
  else
    e[G % 2] = _mm_sha1nexte_epu32(e[G % 2], msg);
  e[(G + 1) % 2] = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e[G % 2], G / 5);
  if constexpr (G >= 1 && G <= 16)
    m[(G + 3) % 4] = _mm_sha1msg1_epu32(m[(G + 3) % 4], msg);
  if constexpr (G >= 2 && G <= 17)
    m[(G + 2) % 4] = _mm_xor_si128(m[(G + 2) % 4], msg);
  if constexpr (G >= 3 && G <= 18)
    m[(G + 1) % 4] = _mm_sha1msg2_epu32(m[(G + 1) % 4], msg);
}

template <int... G>
FLUX_SHA_TARGET inline void all_quads(__m128i& abcd, __m128i (&e)[2],
                                      __m128i (&m)[4],
                                      std::integer_sequence<int, G...>) {
  (quad<G>(abcd, e, m), ...);
}

}  // namespace

FLUX_SHA_TARGET void compress_shani(std::uint32_t h[5],
                                    const std::uint8_t* blocks,
                                    std::size_t nblocks) noexcept {
  // Byte-swap each big-endian 32-bit word and reverse word order, so W0
  // lands in the top lane the sha1 instructions read first.
  const __m128i bswap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(h)), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(h[4]), 0, 0, 0);

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abcd_save = abcd;
    const __m128i e_save = e0;
    __m128i m[4];
    for (int i = 0; i < 4; ++i)
      m[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          bswap);
    __m128i e[2] = {e0, e0};
    all_quads(abcd, e, m, std::make_integer_sequence<int, 20>{});
    // Quad 19 left the ABCD it started from in e[0]: that is the next E.
    e0 = _mm_sha1nexte_epu32(e[0], e_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
  }

  _mm_storeu_si128(reinterpret_cast<__m128i*>(h),
                   _mm_shuffle_epi32(abcd, 0x1B));
  h[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

#undef FLUX_SHA_TARGET

bool sha1_hardware() noexcept {
  static const bool has = [] {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid_max(0, nullptr) < 7) return false;
    __cpuid(1, a, b, c, d);
    const bool ssse3 = (c & bit_SSSE3) != 0;
    const bool sse41 = (c & bit_SSE4_1) != 0;
    __cpuid_count(7, 0, a, b, c, d);
    const bool sha = (b & (1u << 29)) != 0;  // CPUID.(EAX=7,ECX=0):EBX.SHA
    return ssse3 && sse41 && sha;
  }();
  return has;
}

#else

bool sha1_hardware() noexcept { return false; }

#endif

namespace {
using CompressFn = void (*)(std::uint32_t*, const std::uint8_t*,
                            std::size_t) noexcept;

void compress(std::uint32_t h[5], const std::uint8_t* blocks,
              std::size_t nblocks) noexcept {
#if defined(__x86_64__)
  static const CompressFn fn =
      sha1_hardware() ? &compress_shani : &compress_portable;
#else
  static const CompressFn fn = &compress_portable;
#endif
  fn(h, blocks, nblocks);
}
}  // namespace

}  // namespace sha1_internal

using sha1_internal::compress;

Sha1Stream::Sha1Stream() {
  h_[0] = 0x67452301u;
  h_[1] = 0xEFCDAB89u;
  h_[2] = 0x98BADCFEu;
  h_[3] = 0x10325476u;
  h_[4] = 0xC3D2E1F0u;
}

void Sha1Stream::update(std::span<const std::uint8_t> data) {
  total_bytes_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buffered_ > 0) {
    const std::size_t take = std::min(n, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ < buffer_.size()) return;
    compress(h_, buffer_.data(), 1);
    buffered_ = 0;
  }
  const std::size_t whole = n / 64;
  if (whole > 0) {
    compress(h_, p, whole);
    p += whole * 64;
    n -= whole * 64;
  }
  if (n > 0) {
    std::memcpy(buffer_.data(), p, n);
    buffered_ = n;
  }
}

void Sha1Stream::update(std::string_view data) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Sha1 Sha1Stream::digest() {
  // Pad in place: 0x80, zeros up to byte 56 (spilling into a second block
  // when fewer than 8 bytes remain), then the big-endian bit length.
  const std::uint64_t bit_len = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, buffer_.size() - buffered_);
    compress(h_, buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i)
    buffer_[static_cast<std::size_t>(56 + i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - i * 8));
  compress(h_, buffer_.data(), 1);
  buffered_ = 0;

  std::array<std::uint8_t, Sha1::kSize> out{};
  for (int i = 0; i < 5; ++i) {
    out[static_cast<std::size_t>(i * 4)] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[static_cast<std::size_t>(i * 4 + 1)] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[static_cast<std::size_t>(i * 4 + 2)] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[static_cast<std::size_t>(i * 4 + 3)] = static_cast<std::uint8_t>(h_[i]);
  }
  return Sha1(out);
}

Sha1 Sha1::of(std::span<const std::uint8_t> data) {
  Sha1Stream s;
  s.update(data);
  return s.digest();
}

Sha1 Sha1::of(std::string_view data) {
  Sha1Stream s;
  s.update(data);
  return s.digest();
}

std::optional<Sha1> Sha1::parse(std::string_view hex) {
  std::array<std::uint8_t, kSize> raw{};
  if (!hex_decode_to(hex, raw)) return std::nullopt;
  return Sha1(raw);
}

std::string Sha1::hex() const { return hex_encode(raw_); }

std::string Sha1::short_hex() const { return hex().substr(0, 8); }

}  // namespace flux
