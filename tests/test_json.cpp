#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hpp"

namespace stormtune {
namespace {

TEST(Json, ScalarConstructionAndAccess) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(nullptr).is_null());
  EXPECT_TRUE(Json(true).as_bool());
  EXPECT_DOUBLE_EQ(Json(3.25).as_number(), 3.25);
  EXPECT_EQ(Json(7).as_int(), 7);
  EXPECT_EQ(Json("hi").as_string(), "hi");
}

TEST(Json, TypeMismatchThrows) {
  EXPECT_THROW(Json(1.0).as_string(), Error);
  EXPECT_THROW(Json("x").as_number(), Error);
  EXPECT_THROW(Json(true).as_array(), Error);
  EXPECT_THROW(Json(1.5).as_int(), Error);  // not integral
}

TEST(Json, ObjectRoundTrip) {
  Json j;
  j["name"] = "spearmint";
  j["steps"] = 60;
  j["resume"] = true;
  const std::string text = j.dump();
  const Json parsed = Json::parse(text);
  EXPECT_EQ(parsed.at("name").as_string(), "spearmint");
  EXPECT_EQ(parsed.at("steps").as_int(), 60);
  EXPECT_TRUE(parsed.at("resume").as_bool());
}

TEST(Json, ArrayRoundTrip) {
  JsonArray arr;
  for (int i = 0; i < 5; ++i) arr.emplace_back(i * 1.5);
  const Json j(arr);
  const Json parsed = Json::parse(j.dump());
  ASSERT_EQ(parsed.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(parsed.at(i).as_number(), static_cast<double>(i) * 1.5);
  }
}

TEST(Json, NestedStructureRoundTrip) {
  Json j;
  j["obs"] = Json(JsonArray{
      Json(JsonObject{{"x", Json(JsonArray{Json(1.0), Json(2.0)})},
                      {"y", Json(0.5)}}),
  });
  const Json parsed = Json::parse(j.dump(2));
  EXPECT_DOUBLE_EQ(parsed.at("obs").at(0).at("y").as_number(), 0.5);
  EXPECT_DOUBLE_EQ(parsed.at("obs").at(0).at("x").at(1).as_number(), 2.0);
}

TEST(Json, StringEscapes) {
  const Json j(std::string("line1\nline2\t\"quoted\"\\slash"));
  const Json parsed = Json::parse(j.dump());
  EXPECT_EQ(parsed.as_string(), "line1\nline2\t\"quoted\"\\slash");
}

TEST(Json, UnicodeEscapeParsing) {
  const Json parsed = Json::parse("\"\\u0041\\u00e9\"");
  EXPECT_EQ(parsed.as_string(), "A\xc3\xa9");
}

TEST(Json, NumberPrecisionSurvivesRoundTrip) {
  const double v = 0.12345678901234567;
  const Json parsed = Json::parse(Json(v).dump());
  EXPECT_DOUBLE_EQ(parsed.as_number(), v);
}

TEST(Json, NegativeAndExponentNumbers) {
  EXPECT_DOUBLE_EQ(Json::parse("-12.5e2").as_number(), -1250.0);
  EXPECT_DOUBLE_EQ(Json::parse("1e-3").as_number(), 0.001);
  EXPECT_EQ(Json::parse("-7").as_int(), -7);
}

TEST(Json, ParsesLiteralsAndWhitespace) {
  EXPECT_TRUE(Json::parse("  null ").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_TRUE(Json::parse(" { } ").is_object());
  EXPECT_TRUE(Json::parse("[\n]").is_array());
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), Error);
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("[1,]"), Error);
  EXPECT_THROW(Json::parse("{\"a\":}"), Error);
  EXPECT_THROW(Json::parse("tru"), Error);
  EXPECT_THROW(Json::parse("1 2"), Error);  // trailing garbage
  EXPECT_THROW(Json::parse("\"unterminated"), Error);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), Error);
  EXPECT_THROW(Json::parse("--1"), Error);
}

TEST(Json, ContainsAndMissingKey) {
  Json j;
  j["a"] = 1;
  EXPECT_TRUE(j.contains("a"));
  EXPECT_FALSE(j.contains("b"));
  EXPECT_THROW(j.at("b"), Error);
}

TEST(Json, ArrayIndexOutOfRangeThrows) {
  const Json j(JsonArray{Json(1.0)});
  EXPECT_THROW(j.at(1), Error);
}

TEST(Json, DeterministicKeyOrder) {
  Json a;
  a["zebra"] = 1;
  a["alpha"] = 2;
  Json b;
  b["alpha"] = 2;
  b["zebra"] = 1;
  EXPECT_EQ(a.dump(), b.dump());  // std::map ordering
}

TEST(Json, EqualityOperator) {
  EXPECT_EQ(Json(1.0), Json(1.0));
  EXPECT_FALSE(Json(1.0) == Json(2.0));
  Json a;
  a["k"] = "v";
  EXPECT_EQ(a, Json::parse("{\"k\":\"v\"}"));
}

TEST(Json, DeepNestingWithinLimitParses) {
  std::string text(200, '[');
  text += "1";
  text += std::string(200, ']');
  const Json j = Json::parse(text);
  EXPECT_TRUE(j.is_array());
}

TEST(Json, PathologicalNestingRejectedNotCrashed) {
  // A million-deep array must raise a clean error instead of overflowing
  // the parser's stack.
  std::string text(1000000, '[');
  EXPECT_THROW(Json::parse(text), Error);
}

TEST(Json, PrettyPrintParsesBack) {
  Json j;
  j["list"] = Json(JsonArray{Json(1), Json(2)});
  j["nested"] = Json(JsonObject{{"deep", Json(true)}});
  const std::string pretty = j.dump(4);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty), j);
}

TEST(Json, CanonicalNumberFormatterRoundTripsBitExactly) {
  // Every finite double must survive number_to_string -> parse with its
  // bits intact — benchmark records (BENCH_*.json) rely on this to keep
  // baseline comparisons exact.
  const double cases[] = {
      0.0,         -0.0,
      1.0,         -1.0,
      0.1,         1.0 / 3.0,
      5522.688666666666,
      1e-300,      -1e300,
      1e15,        -1e15,  // just past the integer fast path
      9.007199254740992e15,  // 2^53
      2.2250738585072014e-308,  // DBL_MIN
      1.7976931348623157e308,   // DBL_MAX
      4.9406564584124654e-324,  // smallest denormal
      0x1.fffffffffffffp-1,     // just under 1
  };
  for (const double d : cases) {
    const std::string s = Json::number_to_string(d);
    const double back = Json::parse(s).as_number();
    EXPECT_EQ(back, d) << s;
    EXPECT_EQ(std::signbit(back), std::signbit(d)) << s;
  }
}

TEST(Json, CanonicalNumberFormatterMatchesDump) {
  const double values[] = {3.25, 42.0, -17.5, 1.0 / 7.0, 2.5e-12};
  for (const double d : values) {
    EXPECT_EQ(Json(d).dump(), Json::number_to_string(d));
  }
}

TEST(Json, CanonicalNumberFormatterRejectsNonFinite) {
  EXPECT_THROW(Json::number_to_string(
                   std::numeric_limits<double>::infinity()),
               Error);
  EXPECT_THROW(Json::number_to_string(
                   std::numeric_limits<double>::quiet_NaN()),
               Error);
}

TEST(Json, Uint64RoundTripsExactlyAndRejectsEverythingElse) {
  for (const std::uint64_t v :
       {std::uint64_t{777}, std::uint64_t{1} << 53,
        (std::uint64_t{1} << 53) + 1, ~std::uint64_t{0}}) {
    EXPECT_EQ(Json::parse(Json::from_uint64(v).dump()).as_uint64(), v);
  }
  for (const Json& bad :
       {Json(-1.0), Json(1.5), Json(0x1p53 + 2.0), Json(0x1p64), Json(true),
        Json(""), Json("-1"), Json("+1"), Json(" 1"), Json("1.5"),
        Json("18446744073709551616")}) {
    EXPECT_THROW(bad.as_uint64(), Error) << bad.dump();
  }
}

TEST(Json, HugeNumbersSkipIntegerFastPathSafely) {
  // Magnitudes past long long's range must take the %.17g path (llround
  // on them would be undefined behavior) and as_int must reject them.
  const double huge = 1e300;
  EXPECT_EQ(Json::parse(Json::number_to_string(huge)).as_number(), huge);
  EXPECT_THROW(Json(huge).as_int(), Error);
}

}  // namespace
}  // namespace stormtune
