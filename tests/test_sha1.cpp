// SHA1 correctness: FIPS-180 vectors, streaming equivalence, padding and
// parsing edges, and the SHA-NI body checked against the portable oracle.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "base/rng.hpp"
#include "hash/sha1.hpp"
#include "hash/sha1_compress.hpp"
#include "test_seed.hpp"

namespace flux {
namespace {

/// Full-range (not just printable) pseudo-random bytes.
std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

// Digest of `data` with the compression body `compress`, padding done here
// independently of Sha1Stream.
template <typename Compress>
std::array<std::uint32_t, 5> digest_with(Compress compress,
                                         std::span<const std::uint8_t> data) {
  std::array<std::uint32_t, 5> h = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                                    0x10325476u, 0xC3D2E1F0u};
  const std::size_t whole = data.size() / 64;
  if (whole > 0) compress(h.data(), data.data(), whole);
  std::uint8_t tail[128] = {};
  const std::size_t rest = data.size() - whole * 64;
  if (rest > 0) std::memcpy(tail, data.data() + whole * 64, rest);
  tail[rest] = 0x80;
  const std::size_t tail_blocks = rest + 9 > 64 ? 2 : 1;
  const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 0; i < 8; ++i)
    tail[tail_blocks * 64 - 1 - static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bits >> (8 * i));
  compress(h.data(), tail, tail_blocks);
  return h;
}

/// A digest as the five big-endian state words digest_with() returns.
std::array<std::uint32_t, 5> words(const Sha1& digest) {
  std::array<std::uint32_t, 5> out{};
  for (std::size_t i = 0; i < Sha1::kSize; ++i)
    out[i / 4] = (out[i / 4] << 8) | digest.raw()[i];
  return out;
}

TEST(Sha1, Fips180Vectors) {
  EXPECT_EQ(Sha1::of("abc").hex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(Sha1::of("").hex(), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(
      Sha1::of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").hex(),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionA) {
  Sha1Stream s;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) s.update(chunk);
  EXPECT_EQ(s.digest().hex(), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, StreamingMatchesOneShot) {
  const std::string data =
      "The quick brown fox jumps over the lazy dog, repeatedly and with "
      "increasing enthusiasm, until the buffer boundary is crossed.";
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    Sha1Stream s;
    s.update(std::string_view(data).substr(0, split));
    s.update(std::string_view(data).substr(split));
    EXPECT_EQ(s.digest(), Sha1::of(data)) << "split at " << split;
  }
}

TEST(Sha1, BlockBoundaries) {
  // Lengths straddling the 55/56/64-byte padding boundaries.
  for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 128u}) {
    const std::string data(len, 'x');
    Sha1Stream s;
    s.update(data);
    EXPECT_EQ(s.digest(), Sha1::of(data)) << "len " << len;
  }
}

TEST(Sha1, ParseRoundTrip) {
  const Sha1 digest = Sha1::of("roundtrip");
  const auto parsed = Sha1::parse(digest.hex());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, digest);
}

TEST(Sha1, OneByteUpdatesMatchOneShot) {
  // Pins the one-step padding: every tail length across the 55/56/64
  // boundaries, with the stream buffering one byte at a time, against
  // Sha1::of and against padding done independently over the portable body.
  Rng rng(flux::testing::test_seed());
  const auto data = random_bytes(rng, 130);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const auto prefix = std::span<const std::uint8_t>(data).first(len);
    Sha1Stream s;
    for (std::size_t i = 0; i < len; ++i) s.update(prefix.subspan(i, 1));
    const Sha1 streamed = s.digest();
    EXPECT_EQ(streamed, Sha1::of(prefix)) << "len " << len;
    EXPECT_EQ(words(streamed),
              digest_with(sha1_internal::compress_portable, prefix))
        << "len " << len;
  }
}

TEST(Sha1, ParseAcceptsUpperCase) {
  const Sha1 digest = Sha1::of("upper");
  std::string upper = digest.hex();
  for (char& c : upper)
    if (c >= 'a' && c <= 'f') c = static_cast<char>(c - 'a' + 'A');
  ASSERT_NE(upper, digest.hex());
  const auto parsed = Sha1::parse(upper);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, digest);
  EXPECT_EQ(*parsed, *Sha1::parse(digest.hex()));
}

TEST(Sha1, ParseRejectsBadCharAtEveryPosition) {
  const std::string good = Sha1::of("positions").hex();
  for (char bad : {'g', ' ', '\0', static_cast<char>(0xff)}) {
    for (std::size_t pos = 0; pos < good.size(); ++pos) {
      std::string ref = good;
      ref[pos] = bad;
      EXPECT_FALSE(Sha1::parse(ref).has_value())
          << "char " << static_cast<int>(static_cast<unsigned char>(bad))
          << " at " << pos;
    }
  }
}

TEST(Sha1, ParseRoundTripSeeded) {
  const std::uint64_t seed = flux::testing::test_seed();
  SCOPED_TRACE("FLUX_TEST_SEED=" + std::to_string(seed));
  Rng rng(seed);
  for (int i = 0; i < 256; ++i) {
    std::array<std::uint8_t, Sha1::kSize> raw{};
    for (auto& b : raw) b = static_cast<std::uint8_t>(rng());
    const Sha1 digest(raw);
    const auto parsed = Sha1::parse(digest.hex());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, digest);
  }
}

TEST(Sha1, ParseRejectsBadInput) {
  EXPECT_FALSE(Sha1::parse("").has_value());
  EXPECT_FALSE(Sha1::parse("abc").has_value());
  EXPECT_FALSE(Sha1::parse(std::string(40, 'g')).has_value());
  EXPECT_FALSE(Sha1::parse(std::string(39, 'a')).has_value());
  EXPECT_FALSE(Sha1::parse(std::string(42, 'a')).has_value());
}

TEST(Sha1, ShortHex) {
  EXPECT_EQ(Sha1::of("abc").short_hex(), "a9993e36");
}

TEST(Sha1, DefaultIsZero) {
  EXPECT_EQ(Sha1{}.hex(), std::string(40, '0'));
}

TEST(Sha1, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha1::of("a"), Sha1::of("b"));
  EXPECT_NE(Sha1::of("content-1"), Sha1::of("content-2"));
}

TEST(Sha1, StdHashUsable) {
  std::hash<Sha1> h;
  EXPECT_NE(h(Sha1::of("a")), h(Sha1::of("b")));
}

TEST(Sha1, HardwareMatchesPortable) {
  if (!sha1_internal::sha1_hardware())
    GTEST_SKIP() << "this CPU has no SHA-NI; only the portable SHA-1 path "
                    "is built in and active";
#if defined(__x86_64__)
  using sha1_internal::compress_portable;
  using sha1_internal::compress_shani;
  const std::uint64_t seed = flux::testing::test_seed();
  SCOPED_TRACE("FLUX_TEST_SEED=" + std::to_string(seed));
  Rng rng(seed);

  // Random inputs at every length 0..1024 plus two long ones: both bodies
  // agree under identical padding, and Sha1Stream (the dispatched path, with
  // its own padding) agrees when fed in three pieces cut at random points.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 1024; ++n) lengths.push_back(n);
  lengths.push_back(4096);
  lengths.push_back(65536);
  for (const std::size_t n : lengths) {
    const auto data = random_bytes(rng, n);
    const auto want = digest_with(compress_portable, data);
    ASSERT_EQ(digest_with(compress_shani, data), want) << "len " << n;

    std::size_t cut1 = rng.below(n + 1);
    std::size_t cut2 = rng.below(n + 1);
    if (cut1 > cut2) std::swap(cut1, cut2);
    const std::span<const std::uint8_t> all(data);
    Sha1Stream s;
    s.update(all.subspan(0, cut1));
    s.update(all.subspan(cut1, cut2 - cut1));
    s.update(all.subspan(cut2));
    EXPECT_EQ(words(s.digest()), want)
        << "len " << n << " cuts " << cut1 << "," << cut2;
  }

  // Known answers through both bodies.
  const std::pair<std::string, std::array<std::uint32_t, 5>> vectors[] = {
      {"abc", {0xa9993e36u, 0x4706816au, 0xba3e2571u, 0x7850c26cu,
               0x9cd0d89du}},
      {"", {0xda39a3eeu, 0x5e6b4b0du, 0x3255bfefu, 0x95601890u, 0xafd80709u}},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       {0x84983e44u, 0x1c3bd26eu, 0xbaae4aa1u, 0xf95129e5u, 0xe54670f1u}},
      {std::string(1000000, 'a'),
       {0x34aa973cu, 0xd4c4daa4u, 0xf61eeb2bu, 0xdbad2731u, 0x6534016fu}},
  };
  for (const auto& [text, expect] : vectors) {
    const std::span<const std::uint8_t> bytes(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
    EXPECT_EQ(digest_with(compress_shani, bytes), expect)
        << "len " << text.size();
    EXPECT_EQ(digest_with(compress_portable, bytes), expect)
        << "len " << text.size();
  }
#endif
}

}  // namespace
}  // namespace flux
