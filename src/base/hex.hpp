// Hex encoding/decoding helpers used by content addressing and diagnostics.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace flux {

/// Lower-case hex encoding of a byte span.
std::string hex_encode(std::span<const std::uint8_t> bytes);

/// Decode a hex string; returns nullopt for odd length or non-hex characters.
std::optional<std::vector<std::uint8_t>> hex_decode(std::string_view hex);

/// Decode exactly `out.size()` bytes into `out` without allocating. False if
/// `hex` is not exactly twice that long or holds a non-hex character (then
/// `out` is unspecified). Upper and lower case are both accepted.
bool hex_decode_to(std::string_view hex, std::span<std::uint8_t> out);

}  // namespace flux
