// JSON value model, parser, canonical serialization.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>

#include "base/hex.hpp"
#include "base/rng.hpp"
#include "hash/sha1.hpp"
#include "json/json.hpp"
#include "kvs/object_bundle.hpp"
#include "msg/codec.hpp"

namespace flux {
namespace {

TEST(Json, ScalarTypes) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(42).is_int());
  EXPECT_TRUE(Json(4.5).is_double());
  EXPECT_TRUE(Json("hi").is_string());
  EXPECT_TRUE(Json::array().is_array());
  EXPECT_TRUE(Json::object().is_object());
}

TEST(Json, IntAndDoubleStayDistinct) {
  EXPECT_NE(Json(1), Json(1.0));
  EXPECT_EQ(Json(1).dump(), "1");
  EXPECT_EQ(Json(1.0).dump(), "1.0");
}

TEST(Json, DumpCanonicalSortedKeys) {
  Json j = Json::object({{"zebra", 1}, {"alpha", 2}, {"mid", 3}});
  EXPECT_EQ(j.dump(), R"({"alpha":2,"mid":3,"zebra":1})");
}

TEST(Json, EqualObjectsSerializeIdentically) {
  Json a = Json::object({{"x", 1}, {"y", "two"}});
  Json b;
  b["y"] = "two";
  b["x"] = 1;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.dump(), b.dump());
}

TEST(Json, StringEscapes) {
  Json j = Json("line\n\"quoted\"\ttab\\slash\x01");
  EXPECT_EQ(j.dump(), R"("line\n\"quoted\"\ttab\\slash\u0001")");
  auto parsed = Json::parse(j.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, j);
}

TEST(Json, ParseBasics) {
  auto v = Json::parse(R"({"a": [1, 2.5, "x", true, false, null], "b": {}})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->at("a").size(), 6u);
  EXPECT_EQ(v->at("a").as_array()[0], Json(1));
  EXPECT_EQ(v->at("a").as_array()[1], Json(2.5));
  EXPECT_TRUE(v->at("b").is_object());
}

TEST(Json, ParseTopLevelScalars) {
  EXPECT_EQ(*Json::parse("true"), Json(true));
  EXPECT_EQ(*Json::parse("false"), Json(false));
  EXPECT_EQ(*Json::parse("null"), Json());
  EXPECT_EQ(*Json::parse("-17"), Json(-17));
  EXPECT_EQ(*Json::parse("\"s\""), Json("s"));
  EXPECT_EQ(*Json::parse("1e3"), Json(1000.0));
}

TEST(Json, ParseUnicodeEscapes) {
  auto v = Json::parse(R"("Aé中😀")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "A\xc3\xa9\xe4\xb8\xad\xf0\x9f\x98\x80");
}

TEST(Json, ParseErrors) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "01x", "\"unterminated",
        "[1] trailing", "{\"a\" 1}", "\"\\u12\"", "\"bad\x01ctl\"",
        "nan", "+1"}) {
    auto v = Json::parse(bad);
    EXPECT_FALSE(v.has_value()) << "input: " << bad;
  }
}

TEST(Json, DeepNestingLimit) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_FALSE(Json::parse(deep).has_value());
}

TEST(Json, Int64RoundTrip) {
  const std::int64_t big = std::numeric_limits<std::int64_t>::max();
  Json j(big);
  auto parsed = Json::parse(j.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_int(), big);
}

TEST(Json, GettersWithDefaults) {
  Json j = Json::object({{"i", 7}, {"s", "str"}, {"b", true}, {"d", 2.5}});
  EXPECT_EQ(j.get_int("i"), 7);
  EXPECT_EQ(j.get_int("missing", -1), -1);
  EXPECT_EQ(j.get_string("s"), "str");
  EXPECT_EQ(j.get_string("missing", "dflt"), "dflt");
  EXPECT_TRUE(j.get_bool("b"));
  EXPECT_DOUBLE_EQ(j.get_double("d"), 2.5);
  EXPECT_DOUBLE_EQ(j.get_double("i"), 7.0);  // int promotes
}

TEST(Json, AtOnMissingReturnsNull) {
  Json j = Json::object({{"x", 1}});
  EXPECT_TRUE(j.at("nope").is_null());
  EXPECT_TRUE(Json(3).at("anything").is_null());
}

TEST(Json, TypeErrorsThrow) {
  EXPECT_THROW((void)Json("s").as_int(), FluxException);
  EXPECT_THROW((void)Json(1).as_string(), FluxException);
  EXPECT_THROW((void)Json(1).as_array(), FluxException);
  EXPECT_THROW((void)Json(1).as_object(), FluxException);
  EXPECT_THROW((void)Json("s").as_double(), FluxException);
}

TEST(Json, SubscriptPromotesNull) {
  Json j;
  j["a"]["b"] = 5;
  EXPECT_EQ(j.at("a").at("b"), Json(5));
}

TEST(Json, PushBackPromotesNull) {
  Json j;
  j.push_back(1);
  j.push_back("two");
  EXPECT_EQ(j.size(), 2u);
}

TEST(Json, InitializerListMovesRvalues) {
  // Rvalues keep their buffers: moved into the factories, never copied.
  std::string str(1000, 's');
  JsonArray arr(100, Json(7));
  const char* str_buf = str.data();
  const Json* arr_buf = arr.data();
  Json obj = Json::object({{"s", std::move(str)}, {"a", std::move(arr)}});
  EXPECT_EQ(obj.at("s").as_string().data(), str_buf);
  EXPECT_EQ(obj.at("a").as_array().data(), arr_buf);

  std::string str2(1000, 't');
  JsonArray arr2(100, Json(8));
  const char* str2_buf = str2.data();
  const Json* arr2_buf = arr2.data();
  Json list = Json::array({std::move(str2), std::move(arr2)});
  EXPECT_EQ(list.as_array()[0].as_string().data(), str2_buf);
  EXPECT_EQ(list.as_array()[1].as_array().data(), arr2_buf);

  // Lvalues are copied and left intact.
  const std::string keep(1000, 'k');
  Json tree = Json::array({1, 2, 3});
  Json obj2 = Json::object({{"s", keep}, {"t", tree}});
  EXPECT_EQ(keep, std::string(1000, 'k'));
  EXPECT_EQ(tree, Json::array({1, 2, 3}));
  EXPECT_NE(obj2.at("s").as_string().data(), keep.data());
  EXPECT_EQ(obj2.at("s").as_string(), keep);
  EXPECT_EQ(obj2.at("t"), tree);
  Json list2 = Json::array({keep, tree});
  EXPECT_EQ(keep, std::string(1000, 'k'));
  EXPECT_EQ(tree, Json::array({1, 2, 3}));
  EXPECT_NE(list2.as_array()[0].as_string().data(), keep.data());
  EXPECT_EQ(list2.as_array()[1], tree);

  // Duplicate keys keep the first occurrence, as before.
  EXPECT_EQ(Json::object({{"k", 1}, {"k", 2}}).at("k"), Json(1));
}

TEST(Json, DumpSizeMatchesDump) {
  Json j = Json::object(
      {{"arr", Json::array({1, 2.5, "three", true, nullptr})},
       {"nested", Json::object({{"k", "v\nescaped"}})},
       {"n", -42}});
  EXPECT_EQ(j.dump_size(), j.dump().size());
}

TEST(Json, PrettyPrintParsesBack) {
  Json j = Json::object({{"a", Json::array({1, 2})}, {"b", Json::object()}});
  auto parsed = Json::parse(j.dump_pretty());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, j);
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
}

// Canonical-serialization golden vectors. The KVS content-addresses objects
// by SHA1 of their canonical dump, so these bytes — sorted keys, minimal
// whitespace, ".0" on integral doubles, \u escapes for control chars — are
// an on-disk/on-wire format. Any serializer change that shifts them silently
// re-keys every stored object; this test makes that a reviewed decision.
TEST(Json, CanonicalGoldenVectors) {
  struct Vector {
    Json doc;
    const char* canonical;
    const char* sha1;
  };
  const Vector vectors[] = {
      {Json::object({{"t", "dir"}, {"e", Json::object()}}),
       R"({"e":{},"t":"dir"})", "7404997d477c6392b00b5d52834d4eedc78a06ba"},
      {Json::object({{"t", "val"}, {"d", "hello"}}),
       R"({"d":"hello","t":"val"})",
       "34308fd011a7c48f34e9dbfe9e14e61ece1c56d4"},
      {Json::object(
           {{"b", 2.0},
            {"a", "x\ny"},
            {"c", Json::array({1, "2", true, nullptr})}}),
       R"({"a":"x\ny","b":2.0,"c":[1,"2",true,null]})",
       "8049af03789c43e857a395a2400b555c212b8e6a"},
      {Json::object(
           {{"pi", 3.141592653589793}, {"neg", -1}, {"u", "\x01\"q\""}}),
       R"({"neg":-1,"pi":3.141592653589793,"u":"\u0001\"q\""})",
       "d17f939fda635051c51579d32dfe6a1e1cf1fdf0"},
  };
  for (const Vector& v : vectors) {
    SCOPED_TRACE(v.canonical);
    EXPECT_EQ(v.doc.dump(), v.canonical);
    EXPECT_EQ(v.doc.dump_size(), std::string_view(v.canonical).size());
    std::string into;
    v.doc.dump_into(into);
    EXPECT_EQ(into, v.canonical);
    EXPECT_EQ(Sha1::of(v.doc.dump()).hex(), v.sha1);
    auto parsed = Json::parse(v.canonical);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->dump(), v.canonical);
  }
}

// Every payload in the committed golden wire corpus re-serializes to the
// same canonical bytes after a parse round-trip — the corpus frames embed
// canonical JSON, so this checks the serializer against real traffic shapes
// rather than hand-picked vectors.
TEST(Json, GoldenCorpusPayloadsRoundTrip) {
  ObjectBundle::register_codec();  // request_bundle.hex carries an attachment
  int checked = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(FLUX_GOLDEN_DIR)) {
    if (entry.path().extension() != ".hex") continue;
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream in(entry.path());
    std::string hex;
    in >> hex;
    auto bytes = hex_decode(hex);
    ASSERT_TRUE(bytes.has_value());
    auto msg = decode(*bytes);
    ASSERT_TRUE(msg.has_value()) << msg.error().to_string();
    const std::string canonical = msg->payload().dump();
    auto reparsed = Json::parse(canonical);
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(reparsed->dump(), canonical);
    EXPECT_EQ(Sha1::of(reparsed->dump()), Sha1::of(canonical));
    ++checked;
  }
  EXPECT_GE(checked, 4) << "golden corpus went missing";
}

// Property: random structured values round-trip through dump/parse.
TEST(JsonProperty, RandomRoundTrip) {
  Rng rng(20260705);
  for (int iter = 0; iter < 200; ++iter) {
    // Build a random value of bounded depth.
    std::function<Json(int)> gen = [&](int depth) -> Json {
      const std::uint64_t pick = rng.below(depth >= 4 ? 5 : 7);
      switch (pick) {
        case 0: return Json();
        case 1: return Json(rng.below(2) == 0);
        case 2: return Json(static_cast<std::int64_t>(rng() >> 1) -
                            static_cast<std::int64_t>(rng() >> 2));
        case 3: return Json(rng.uniform() * 1e6 - 5e5);
        case 4: return Json(rng.bytes(rng.below(20)));
        case 5: {
          Json arr = Json::array();
          const auto n = rng.below(4);
          for (std::uint64_t i = 0; i < n; ++i) arr.push_back(gen(depth + 1));
          return arr;
        }
        default: {
          Json obj = Json::object();
          const auto n = rng.below(4);
          for (std::uint64_t i = 0; i < n; ++i)
            obj[rng.bytes(1 + rng.below(8))] = gen(depth + 1);
          return obj;
        }
      }
    };
    const Json value = gen(0);
    const std::string text = value.dump();
    auto parsed = Json::parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(*parsed, value) << text;
    EXPECT_EQ(value.dump_size(), text.size());
    // Serialization is a fixed point: re-dumping the parse reproduces the
    // exact bytes, so the SHA1 content address survives any number of
    // parse/serialize hops (the dedup invariant).
    EXPECT_EQ(parsed->dump(), text) << text;
    EXPECT_EQ(Sha1::of(parsed->dump()), Sha1::of(text));
    std::string into;
    value.dump_into(into);
    EXPECT_EQ(into, text);
  }
}

}  // namespace
}  // namespace flux
