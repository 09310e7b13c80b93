#include "utils/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "utils/metrics.h"

namespace edde {
namespace {

TEST(JsonValueTest, ParsesScalars) {
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse("null", &v).ok());
  EXPECT_TRUE(v.is_null());

  ASSERT_TRUE(JsonValue::Parse("true", &v).ok());
  ASSERT_TRUE(v.is_bool());
  EXPECT_TRUE(v.AsBool());

  ASSERT_TRUE(JsonValue::Parse("false", &v).ok());
  EXPECT_FALSE(v.AsBool());

  ASSERT_TRUE(JsonValue::Parse("-12.5e2", &v).ok());
  ASSERT_TRUE(v.is_number());
  EXPECT_DOUBLE_EQ(v.AsNumber(), -1250.0);

  ASSERT_TRUE(JsonValue::Parse("\"hi\"", &v).ok());
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.AsString(), "hi");
}

TEST(JsonValueTest, ParsesStringEscapes) {
  JsonValue v;
  ASSERT_TRUE(
      JsonValue::Parse(R"("a\"b\\c\/d\n\tA")", &v).ok());
  EXPECT_EQ(v.AsString(), "a\"b\\c/d\n\tA");
}

TEST(JsonValueTest, ParsesNestedObjectsAndArrays) {
  const std::string doc = R"({
    "name": "edde",
    "n": 3,
    "flags": {"seed": "17", "gamma": "0.1"},
    "values": [1, 2.5, {"k": true}, []]
  })";
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse(doc, &v).ok());
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.Get("name")->AsString(), "edde");
  EXPECT_DOUBLE_EQ(v.Get("n")->AsNumber(), 3.0);
  EXPECT_EQ(v.Get("flags")->Get("seed")->AsString(), "17");
  const auto& values = v.Get("values")->AsArray();
  ASSERT_EQ(values.size(), 4u);
  EXPECT_DOUBLE_EQ(values[1].AsNumber(), 2.5);
  EXPECT_TRUE(values[2].Get("k")->AsBool());
  EXPECT_TRUE(values[3].AsArray().empty());
}

TEST(JsonValueTest, ObjectKeysPreserveDocumentOrder) {
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse(R"({"z": 1, "a": 2, "m": 3})", &v).ok());
  const auto& keys = v.ObjectKeys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "z");
  EXPECT_EQ(keys[1], "a");
  EXPECT_EQ(keys[2], "m");
}

TEST(JsonValueTest, MissingKeysAndFallbacks) {
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse(R"({"x": 7, "s": "str"})", &v).ok());
  EXPECT_TRUE(v.Has("x"));
  EXPECT_FALSE(v.Has("y"));
  EXPECT_EQ(v.Get("y"), nullptr);
  EXPECT_DOUBLE_EQ(v.GetNumberOr("x", -1.0), 7.0);
  EXPECT_DOUBLE_EQ(v.GetNumberOr("y", -1.0), -1.0);
  // Mistyped member falls back too.
  EXPECT_DOUBLE_EQ(v.GetNumberOr("s", -1.0), -1.0);
  EXPECT_EQ(v.GetStringOr("s", "?"), "str");
  EXPECT_EQ(v.GetStringOr("x", "?"), "?");
}

TEST(JsonValueTest, RejectsMalformedDocuments) {
  JsonValue v;
  EXPECT_FALSE(JsonValue::Parse("", &v).ok());
  EXPECT_FALSE(JsonValue::Parse("{", &v).ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]", &v).ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":}", &v).ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated", &v).ok());
  EXPECT_FALSE(JsonValue::Parse("nul", &v).ok());
  // Trailing garbage after a complete document is an error.
  EXPECT_FALSE(JsonValue::Parse("{} {}", &v).ok());
  EXPECT_FALSE(JsonValue::Parse("1 2", &v).ok());
}

TEST(JsonValueTest, AcceptsTrailingWhitespace) {
  JsonValue v;
  EXPECT_TRUE(JsonValue::Parse("  {\"a\": 1}\n\t ", &v).ok());
}

TEST(JsonValueTest, ParseFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/json_test_doc.json";
  {
    std::ofstream out(path);
    out << R"({"bench": "smoke", "regions": [{"region": "r", "count": 2}]})";
  }
  JsonValue v;
  ASSERT_TRUE(JsonValue::ParseFile(path, &v).ok());
  EXPECT_EQ(v.Get("bench")->AsString(), "smoke");
  EXPECT_DOUBLE_EQ(
      v.Get("regions")->AsArray()[0].GetNumberOr("count", 0), 2.0);

  EXPECT_FALSE(JsonValue::ParseFile(path + ".does-not-exist", &v).ok());
}

TEST(JsonValueTest, NonFiniteNumbersRoundTripAsNull) {
  // JSON has no NaN/Inf literal; the repo-wide convention is that
  // JsonBuilder writes non-finite doubles as `null` and NumberOrNaN maps
  // `null` back to NaN. Benchmark records with a non-finite headline must
  // survive the write→parse cycle rather than producing unparseable JSON.
  const std::string doc =
      JsonBuilder()
          .Add("nan", std::numeric_limits<double>::quiet_NaN())
          .Add("inf", std::numeric_limits<double>::infinity())
          .Add("neg_inf", -std::numeric_limits<double>::infinity())
          .Add("finite", 2.5)
          .Build();
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse(doc, &v).ok()) << doc;
  ASSERT_TRUE(v.Get("nan") != nullptr);
  EXPECT_TRUE(v.Get("nan")->is_null());
  EXPECT_TRUE(std::isnan(v.Get("nan")->NumberOrNaN()));
  EXPECT_TRUE(std::isnan(v.GetNumberOrNaN("inf")));
  EXPECT_TRUE(std::isnan(v.GetNumberOrNaN("neg_inf")));
  EXPECT_DOUBLE_EQ(v.GetNumberOrNaN("finite"), 2.5);
}

TEST(JsonValueTest, GetNumberOrNaNCoversAbsentAndMistypedMembers) {
  JsonValue v;
  ASSERT_TRUE(
      JsonValue::Parse(R"({"s": "str", "n": 1.5, "z": null})", &v).ok());
  EXPECT_DOUBLE_EQ(v.GetNumberOrNaN("n"), 1.5);
  EXPECT_TRUE(std::isnan(v.GetNumberOrNaN("z")));        // explicit null
  EXPECT_TRUE(std::isnan(v.GetNumberOrNaN("absent")));   // missing key
  EXPECT_TRUE(std::isnan(v.GetNumberOrNaN("s")));        // wrong type
  // GetNumberOr treats null (non-finite encoding) as fallback-worthy —
  // callers that need to distinguish use GetNumberOrNaN plus Has().
  EXPECT_DOUBLE_EQ(v.GetNumberOr("z", -3.0), -3.0);
  EXPECT_TRUE(v.Has("z"));
  EXPECT_FALSE(v.Has("absent"));
}

TEST(JsonReaderTest, NumbersDecodeExactlyAsStrtod) {
  // The reader decodes with from_chars and falls back to strtod; the
  // accepted token set and every decoded double must be strtod's.
  std::vector<std::string> tokens = {
      "0", "-0", "+1", ".5", "1.", "-.5", "+.5e+2", "00012", "0e0", "1e+5",
      "1E-5", "0.1", "9007199254740993", "1e-320", "-1e-400", "1e-400",
      "4.9406564584124654e-324", "2.4703282292062327e-324",
      "2.4703282292062328e-324", "1.7976931348623157e308",
      "1.7976931348623158e308", "1.7976931348623159e308", "1e999", "-1e999",
      "-", "+", ".", "e5", "E", "1e", "1-2", "--1", "+-1", "1.5.5", "1e5e5"};
  std::mt19937_64 rng(17);
  char buf[64];
  while (tokens.size() < 4000) {
    const uint64_t bits = rng();
    float f;
    const uint32_t low = static_cast<uint32_t>(bits);
    std::memcpy(&f, &low, sizeof(f));
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    if (std::isfinite(f)) {
      std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(f));
      tokens.emplace_back(buf);
    }
    if (std::isfinite(d)) {
      std::snprintf(buf, sizeof(buf), "%.17g", d);
      tokens.emplace_back(buf);
    }
  }
  for (const std::string& token : tokens) {
    char* end = nullptr;
    const double want = std::strtod(token.c_str(), &end);
    JsonValue v;
    const Status s = JsonValue::Parse(token, &v);
    if (*end != '\0') {
      EXPECT_EQ(s.message(), "JSON parse error at offset " +
                                 std::to_string(token.size()) +
                                 ": malformed number: " + token);
      continue;
    }
    ASSERT_TRUE(s.ok()) << token << ": " << s;
    const double got = v.AsNumber();
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(got)), 0)
        << token << ": " << got << " vs " << want;
  }
}

TEST(JsonReaderTest, PullsMembersAndSkipsTheRest) {
  const std::string doc = R"( {"a": [1, {"x": null}], "b": "sA", "c": -2.5} )";
  JsonReader r(doc);
  ASSERT_EQ(r.Peek(), JsonValue::Kind::kObject);
  bool more = false;
  r.BeginObject(&more);
  std::string key;
  JsonScalar v;
  std::vector<std::string> keys;
  while (more) {
    ASSERT_TRUE(r.ReadKey(&key).ok());
    keys.push_back(key);
    if (key == "a") {
      ASSERT_TRUE(r.SkipValue(1).ok());
    } else {
      ASSERT_TRUE(r.ReadScalar(1, &v).ok());
      if (key == "b") {
        EXPECT_EQ(v.string, "sA");
      } else {
        EXPECT_EQ(v.number, -2.5);
      }
    }
    ASSERT_TRUE(r.NextMember(&more).ok());
  }
  EXPECT_TRUE(r.Finish().ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(JsonReaderTest, NestingLimitHoldsForTreesAndSkips) {
  const auto nested = [](int n) {
    return std::string(static_cast<size_t>(n), '[') +
           std::string(static_cast<size_t>(n), ']');
  };
  // The root is depth 0, so 65 arrays reach depth 64: the deepest allowed.
  const std::string deepest = nested(JsonReader::kMaxDepth + 1);
  const std::string too_deep = nested(JsonReader::kMaxDepth + 2);
  JsonValue v;
  EXPECT_TRUE(JsonValue::Parse(deepest, &v).ok());
  const Status deep = JsonValue::Parse(too_deep, &v);
  EXPECT_EQ(deep.message(), "JSON parse error at offset 65: nesting too deep");
  JsonReader skip_deepest(deepest);
  EXPECT_TRUE(skip_deepest.SkipValue(0).ok());
  JsonReader skip_too_deep(too_deep);
  EXPECT_EQ(skip_too_deep.SkipValue(0).message(), deep.message());
}

}  // namespace
}  // namespace edde
