/// \file util_json_reader_test.cpp
/// JsonValue: the emitter's exact bytes (escaping, non-finite doubles,
/// exact integers), strict acceptance of what dump() emits (and ordinary
/// JSON beyond it), exact number round-trips, and rejection of truncated /
/// malformed input without crashes (the suite runs under ASan/UBSan in
/// CI).

#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

namespace spr {
namespace {

JsonValue parse_ok(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(JsonValue::parse(text, v, &error)) << text << ": " << error;
  return v;
}

void expect_reject(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(JsonValue::parse(text, v, &error)) << text;
  EXPECT_FALSE(error.empty()) << text;
}

TEST(JsonReader, Scalars) {
  EXPECT_TRUE(parse_ok("null").is_null());
  EXPECT_TRUE(parse_ok("true").as_bool());
  EXPECT_FALSE(parse_ok("false").as_bool(true));
  EXPECT_EQ(parse_ok("42").as_int64(), 42);
  EXPECT_EQ(parse_ok("-7").as_int64(), -7);
  EXPECT_DOUBLE_EQ(parse_ok("0.5").as_double(), 0.5);
  EXPECT_DOUBLE_EQ(parse_ok("-1e3").as_double(), -1000.0);
  EXPECT_EQ(parse_ok("\"hi\"").as_string(), "hi");
  EXPECT_TRUE(parse_ok("  [ ]  ").is_array());
  EXPECT_TRUE(parse_ok("\t{ }\n").is_object());
}

TEST(JsonReader, NestedContainersAndOrder) {
  JsonValue v = parse_ok(
      R"({"a":1,"list":[1,2,{"x":7}],"b":{"nested":true},"z":null})");
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v.get("a").as_int64(), 1);
  EXPECT_EQ(v.get("list").size(), 3u);
  EXPECT_EQ(v.get("list").at(2).get("x").as_int64(), 7);
  EXPECT_TRUE(v.get("b").get("nested").as_bool());
  EXPECT_TRUE(v.get("z").is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
  // Members keep document order.
  EXPECT_EQ(v.members()[0].first, "a");
  EXPECT_EQ(v.members()[3].first, "z");
}

TEST(JsonReader, StringEscapes) {
  EXPECT_EQ(parse_ok(R"("line\nbreak \"quoted\" \\ \/ \t")").as_string(),
            "line\nbreak \"quoted\" \\ / \t");
  EXPECT_EQ(parse_ok(R"("\u0041\u00e9")").as_string(), "A\xc3\xa9");
  // Surrogate pair -> U+1F600 (4-byte UTF-8).
  EXPECT_EQ(parse_ok(R"("\ud83d\ude00")").as_string(), "\xf0\x9f\x98\x80");
}

TEST(JsonDump, NestedContainersAndEscaping) {
  JsonValue list = JsonValue::array();
  list.push(JsonValue::of(1)).push(JsonValue::of(2));
  list.push(JsonValue::object().set("x", JsonValue::of(7)));
  JsonValue doc = JsonValue::object();
  doc.set("name", JsonValue::of("line\nbreak \"quoted\""));
  doc.set("count", JsonValue::of(3));
  doc.set("ratio", JsonValue::of(0.5));
  doc.set("ok", JsonValue::of(true));
  doc.set("missing", JsonValue());
  doc.set("list", std::move(list));
  EXPECT_EQ(doc.dump(),
            "{\"name\":\"line\\nbreak \\\"quoted\\\"\",\"count\":3,"
            "\"ratio\":0.5,\"ok\":true,\"missing\":null,"
            "\"list\":[1,2,{\"x\":7}]}");
}

TEST(JsonDump, NonFiniteNumbersBecomeNull) {
  JsonValue list = JsonValue::array();
  list.push(JsonValue::of(std::numeric_limits<double>::infinity()));
  list.push(JsonValue::of(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(list.dump(), "[null,null]");
}

TEST(JsonDump, ControlCharactersAndExactIntegers) {
  JsonValue doc = JsonValue::object();
  doc.set("tab\tkey", JsonValue::of("\x01\r\\"));
  doc.set("max", JsonValue::of(std::uint64_t{18446744073709551615ULL}));
  doc.set("min", JsonValue::of(std::int64_t{INT64_MIN}));
  doc.set("third", JsonValue::of(1.0 / 3.0));
  EXPECT_EQ(doc.dump(),
            R"({"tab\tkey":"\u0001\r\\","max":18446744073709551615,)"
            R"("min":-9223372036854775808,"third":0.33333333333333331})");
}

TEST(JsonDump, WriteFileAppendsNewline) {
  const std::string path = ::testing::TempDir() + "spr_json_dump.json";
  JsonValue doc = JsonValue::object().set("a", JsonValue::of(1));
  ASSERT_TRUE(doc.write_file(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[32] = {};
  const std::size_t got = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, got), "{\"a\":1}\n");
  EXPECT_FALSE(doc.write_file("/nonexistent-dir/x.json"));
}

TEST(JsonReader, ParsesWhatDumpEmits) {
  JsonValue doc = JsonValue::object();
  doc.set("name", JsonValue::of("line\nbreak \"quoted\""));
  doc.set("count", JsonValue::of(3));
  doc.set("big", JsonValue::of(std::uint64_t{18446744073709551615ULL}));
  doc.set("neg", JsonValue::of(std::int64_t{-9223372036854775807LL}));
  doc.set("ratio", JsonValue::of(0.1));
  doc.set("bad", JsonValue::of(std::numeric_limits<double>::quiet_NaN()));
  doc.set("list", JsonValue::array()
                      .push(JsonValue::of(1))
                      .push(JsonValue::of(true))
                      .push(JsonValue()));
  const std::string text = doc.dump();

  JsonValue v = parse_ok(text);
  EXPECT_EQ(v.get("name").as_string(), "line\nbreak \"quoted\"");
  EXPECT_EQ(v.get("count").as_int64(), 3);
  EXPECT_EQ(v.get("big").as_uint64(), 18446744073709551615ULL);
  EXPECT_EQ(v.get("neg").as_int64(), -9223372036854775807LL);
  EXPECT_DOUBLE_EQ(v.get("ratio").as_double(), 0.1);
  EXPECT_TRUE(v.get("bad").is_null());  // NaN was emitted as null
  EXPECT_EQ(v.get("list").size(), 3u);
  // Re-emitting the parsed DOM reproduces the document byte-for-byte.
  EXPECT_EQ(v.dump(), text);
}

TEST(JsonReader, DoublesRoundTripBitExactly) {
  const double cases[] = {0.0,
                          -0.0,
                          1.0 / 3.0,
                          6.02214076e23,
                          -2.2250738585072014e-308,
                          123456789.123456789,
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::denorm_min()};
  for (double expected : cases) {
    const std::string text = JsonValue::of(expected).dump();
    JsonValue v = parse_ok(text);
    double actual = v.as_double();
    // Bit-exact, not just approximately equal.
    EXPECT_EQ(std::memcmp(&expected, &actual, sizeof expected), 0)
        << expected << " -> " << text << " -> " << actual;
  }
}

TEST(JsonReader, OutOfRangeDoublesFallBackInIntegerAccessors) {
  // Casting an out-of-range double would be UB; the accessors must return
  // the fallback instead.
  JsonValue huge = parse_ok("1e300");
  EXPECT_EQ(huge.as_int64(7), 7);
  EXPECT_EQ(huge.as_uint64(7u), 7u);
  JsonValue negative = parse_ok("-1e300");
  EXPECT_EQ(negative.as_int64(7), 7);
  EXPECT_EQ(negative.as_uint64(7u), 7u);
  // In-range doubles still convert.
  EXPECT_EQ(parse_ok("3.9").as_int64(), 3);
  EXPECT_EQ(parse_ok("3.9").as_uint64(), 3u);
}

TEST(JsonReader, OutOfRangeLiteralsKeepMagnitudeAndSign) {
  // Tokens beyond double range follow IEEE strtod semantics: overflow to
  // a signed infinity, underflow to a signed zero — never a silent +0.
  EXPECT_TRUE(std::isinf(parse_ok("1e999").as_double()));
  EXPECT_GT(parse_ok("1e999").as_double(), 0.0);
  EXPECT_TRUE(std::isinf(parse_ok("-1e999").as_double()));
  EXPECT_LT(parse_ok("-1e999").as_double(), 0.0);
  EXPECT_EQ(parse_ok("1e-999").as_double(), 0.0);
  EXPECT_TRUE(std::signbit(parse_ok("-1e-999").as_double()));
}

TEST(JsonReader, IsIntegerDistinguishesReprs) {
  EXPECT_TRUE(parse_ok("42").is_integer());
  EXPECT_TRUE(parse_ok("-7").is_integer());
  EXPECT_TRUE(parse_ok("18446744073709551615").is_integer());
  EXPECT_FALSE(parse_ok("1.7").is_integer());
  EXPECT_FALSE(parse_ok("1e3").is_integer());
  EXPECT_FALSE(parse_ok("\"42\"").is_integer());
  EXPECT_FALSE(parse_ok("null").is_integer());
}

TEST(JsonReader, DuplicateKeysLastWins) {
  JsonValue v = parse_ok(R"({"k":1,"k":2})");
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v.get("k").as_int64(), 2);
  // The last value wins at the first key's position: the object reads as
  // setting its members one by one builds it.
  JsonValue mixed =
      parse_ok(R"({"a":1,"k":2,"b":3,"k":{"x":[4]},"a":5,"c":6,"k":7})");
  JsonValue built = JsonValue::object();
  built.set("a", JsonValue::of(1)).set("k", JsonValue::of(2));
  built.set("b", JsonValue::of(3)).set("k", parse_ok(R"({"x":[4]})"));
  built.set("a", JsonValue::of(5)).set("c", JsonValue::of(6));
  built.set("k", JsonValue::of(7));
  EXPECT_EQ(mixed.dump(), built.dump());
  EXPECT_EQ(mixed.dump(), R"({"a":5,"k":7,"b":3,"c":6})");
}

/// An object's members resolve in one hashed pass, so a 2 x 10^5-key
/// object parses in linear time (comparing each key with every earlier
/// one took minutes at this width).
TEST(JsonReader, WideObjectParses) {
  constexpr int kKeys = 200000;
  std::string text = "{";
  for (int i = 0; i < kKeys; ++i) {
    if (i > 0) text += ',';
    text += "\"key" + std::to_string(i) + "\":" + std::to_string(i);
  }
  text += ",\"key7\":-7}";  // one duplicate: it keeps key7's position
  JsonValue v = parse_ok(text);
  ASSERT_EQ(v.size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(v.members()[7].first, "key7");
  EXPECT_EQ(v.members()[7].second.as_int64(), -7);
  EXPECT_EQ(v.members()[kKeys - 1].second.as_int64(), kKeys - 1);
}

TEST(JsonReader, RejectsMalformedInput) {
  for (const char* text :
       {"", "   ", "{", "[", "\"unterminated", "{\"a\":}", "{\"a\" 1}",
        "{\"a\":1,}", "[1,]", "[1 2]", "tru", "nul", "falsee", "01", "1.",
        "1e", "+1", ".5", "--1", "\"\\x\"", "\"\\u12\"", "\"\\ud83d\"",
        "\"\\ude00\"", "\"raw\ncontrol\"", "{\"a\":1} extra", "[1],",
        "{'a':1}", "[01]", "1 2"}) {
    expect_reject(text);
  }
}

TEST(JsonReader, RejectsTruncatedDumpOutput) {
  JsonValue list = JsonValue::array();
  for (int i = 0; i < 20; ++i) list.push(JsonValue::of(i));
  JsonValue doc = JsonValue::object();
  doc.set("list", std::move(list));
  doc.set("tail", JsonValue::of("x"));
  const std::string full = doc.dump();
  // Every strict prefix must be rejected (no crash, no acceptance).
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    JsonValue v;
    EXPECT_FALSE(JsonValue::parse(full.substr(0, cut), v))
        << "prefix length " << cut;
  }
}

TEST(JsonReader, RejectsOverDeepNesting) {
  std::string deep(500, '[');
  deep += std::string(500, ']');
  expect_reject(deep);
  // ...but reasonable nesting is fine.
  std::string ok(64, '[');
  ok += std::string(64, ']');
  parse_ok(ok);
}

TEST(JsonReader, ParseFileErrors) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(JsonValue::parse_file("/nonexistent/path.json", v, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(JsonValueBuilder, BuildsDocuments) {
  JsonValue doc = JsonValue::object();
  doc.set("name", JsonValue::of("spr"));
  doc.set("count", JsonValue::of(2));
  JsonValue list = JsonValue::array();
  list.push(JsonValue::of(1.5)).push(JsonValue::of(false));
  doc.set("list", std::move(list));
  doc.set("count", JsonValue::of(3));  // replaces, keeps position
  EXPECT_EQ(doc.dump(), R"({"name":"spr","count":3,"list":[1.5,false]})");
}

}  // namespace
}  // namespace spr
