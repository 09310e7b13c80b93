#include <gtest/gtest.h>

#include <climits>
#include <cstdio>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "utils/flags.h"
#include "utils/status.h"
#include "utils/table.h"

namespace edde {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad gamma");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad gamma");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad gamma");
}

TEST(StatusTest, EachFactoryProducesItsCode) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::IOError("a"));
}

TEST(StatusTest, StreamInsertionUsesToString) {
  std::ostringstream os;
  os << Status::Corruption("torn page");
  EXPECT_EQ(os.str(), "Corruption: torn page");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).ValueOrDie();
  EXPECT_EQ(v, "payload");
}

// ---------------------------------------------------------------------------
// TablePrinter / formatting
// ---------------------------------------------------------------------------

TEST(TableTest, AlignsColumns) {
  TablePrinter t({"Method", "Acc"});
  t.AddRow({"EDDE", "74.38%"});
  t.AddRow({"Snapshot", "72.17%"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| Method   | Acc    |"), std::string::npos);
  EXPECT_NE(out.find("| EDDE     | 74.38% |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, FormatPercentAndFloat) {
  EXPECT_EQ(FormatPercent(0.7438), "74.38%");
  EXPECT_EQ(FormatPercent(1.0), "100.00%");
  EXPECT_EQ(FormatFloat(0.17025, 4), "0.1703");
  EXPECT_EQ(FormatFloat(2.5, 1), "2.5");
}

// ---------------------------------------------------------------------------
// FlagParser
// ---------------------------------------------------------------------------

TEST(FlagsTest, ParsesEqualsAndSpaceForms) {
  FlagParser flags;
  flags.Define("scale", "tiny", "workload scale");
  flags.Define("seed", "1", "rng seed");
  const char* argv[] = {"prog", "--scale=paper", "--seed", "99"};
  ASSERT_TRUE(flags.Parse(4, const_cast<char**>(argv)).ok());
  EXPECT_EQ(flags.GetString("scale"), "paper");
  EXPECT_EQ(flags.GetInt("seed"), 99);
}

TEST(FlagsTest, ParseIntInRangeRejectsJunkAndRange) {
  int v = 0;
  EXPECT_TRUE(FlagParser::ParseIntInRange("-7", -10, 10, &v));
  EXPECT_EQ(v, -7);
  EXPECT_TRUE(FlagParser::ParseIntInRange("10", -10, 10, &v));
  for (const char* bad : {"", "abc", "12x", " 3", "3 ", "1.5", "+3", "11",
                          "-11", "99999999999"}) {
    EXPECT_FALSE(FlagParser::ParseIntInRange(bad, -10, 10, &v)) << bad;
  }
}

TEST(FlagsTest, MalformedIntegerExitsTwo) {
  for (const char* arg : {"--port=abc", "--port=12x", "--port=70000",
                          "--port=99999999999", "--port="}) {
    FlagParser flags;
    flags.Define("port", "7433", "server port");
    const char* argv[] = {"prog", arg};
    ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
    EXPECT_EXIT(flags.GetInt("port", 1, 65535), ::testing::ExitedWithCode(2),
                "invalid --port=")
        << arg;
  }
  FlagParser flags;
  flags.Define("seed", "12x", "rng seed");
  EXPECT_EXIT(flags.GetInt("seed"), ::testing::ExitedWithCode(2),
              "invalid --seed=12x");
}

TEST(FlagsTest, DefaultsApplyWhenUnset) {
  FlagParser flags;
  flags.Define("gamma", "0.1", "diversity strength");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, const_cast<char**>(argv)).ok());
  EXPECT_EQ(flags.GetString("gamma"), "0.1");
}

TEST(FlagsTest, UnknownFlagIsInvalidArgument) {
  FlagParser flags;
  flags.Define("known", "x", "");
  const char* argv[] = {"prog", "--mystery=1"};
  Status s = flags.Parse(2, const_cast<char**>(argv));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(FlagsTest, BareBooleanFlagIsTrue) {
  FlagParser flags;
  flags.Define("verbose", "false", "");
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_TRUE(flags.GetBool("verbose"));
}

TEST(FlagsTest, BooleanSpellings) {
  for (const char* yes : {"true", "1", "yes"}) {
    FlagParser flags;
    flags.Define("cascade", yes, "");
    EXPECT_TRUE(flags.GetBool("cascade")) << yes;
  }
  for (const char* no : {"false", "0", "no"}) {
    FlagParser flags;
    flags.Define("cascade", no, "");
    EXPECT_FALSE(flags.GetBool("cascade")) << no;
  }
}

TEST(FlagsTest, MalformedBooleanExitsTwo) {
  for (const char* arg : {"--cascade=on", "--cascade=flase", "--cascade=True",
                          "--cascade=", "--cascade=2"}) {
    FlagParser flags;
    flags.Define("cascade", "true", "");
    const char* argv[] = {"prog", arg};
    ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
    EXPECT_EXIT(flags.GetBool("cascade"), ::testing::ExitedWithCode(2),
                "invalid --cascade=")
        << arg;
  }
}

TEST(FlagsTest, HelpRequested) {
  FlagParser flags;
  flags.Define("x", "1", "");
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_TRUE(flags.help_requested());
}

// ---------------------------------------------------------------------------
// FlagParser fuzzing: seeded argv mutants
// ---------------------------------------------------------------------------

std::string MutateArg(const std::vector<std::string>& corpus,
                      std::mt19937* rng) {
  static const std::string kAlphabet = "-=abcdehlpst_0123456789+ x";
  const auto pick = [rng](size_t n) {
    return static_cast<size_t>((*rng)() % n);
  };
  std::string s = corpus[pick(corpus.size())];
  const int edits = static_cast<int>(pick(4));
  for (int e = 0; e < edits; ++e) {
    const size_t at = s.empty() ? 0 : pick(s.size() + 1);
    switch (pick(4)) {
      case 0:
        s.insert(at, 1, kAlphabet[pick(kAlphabet.size())]);
        break;
      case 1:
        if (at < s.size()) s.erase(at, 1 + pick(3));
        break;
      case 2:
        if (at < s.size()) s[at] = kAlphabet[pick(kAlphabet.size())];
        break;
      default:
        s.insert(at, 1, static_cast<char>(1 + pick(255)));
        break;
    }
  }
  return s;
}

TEST(FlagsFuzzTest, MutatedArgvReturnsOkOrInvalidArgument) {
  const std::vector<std::string> corpus = {
      "--seed=3", "--seed", "7", "--scale=tiny", "--scale", "paper",
      "--verbose", "--help", "-h", "--seed=", "--=3", "---seed=1", "--",
      "--scale=a=b", "tiny", "--mystery=1", ""};
  std::mt19937 rng(7);
  int ok = 0, invalid = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<std::string> args = {"prog"};
    const size_t n = rng() % 6;
    for (size_t i = 0; i < n; ++i) args.push_back(MutateArg(corpus, &rng));
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    FlagParser flags;
    flags.Define("seed", "1", "");
    flags.Define("scale", "tiny", "");
    flags.Define("verbose", "false", "");
    const Status s = flags.Parse(static_cast<int>(argv.size()), argv.data());
    ASSERT_TRUE(s.ok() || s.code() == StatusCode::kInvalidArgument)
        << s.ToString();
    if (!s.ok()) {
      ++invalid;
      continue;
    }
    ++ok;
    // Parsing defines no flag and every value came from argv, a default,
    // or a bare flag's "true".
    const auto values = flags.Values();
    ASSERT_EQ(values.size(), 3u);
    for (const auto& [name, value] : values) {
      bool seen = value == "true" || value == "1" || value == "tiny" ||
                  value == "false";
      for (size_t i = 1; i < args.size() && !seen; ++i) {
        seen = args[i] == value || args[i] == "--" + name + "=" + value;
      }
      ASSERT_TRUE(seen) << "--" << name << " = '" << value << "'";
    }
  }
  EXPECT_GT(ok, 300);
  EXPECT_GT(invalid, 300);
}

// True when `text` is an optional '-' and decimal digits whose value lies
// in [lo, hi] — written without from_chars.
bool ReferenceIntInRange(const std::string& text, int lo, int hi,
                         long long* value) {
  size_t i = text.size() > 1 && text[0] == '-' ? 1 : 0;
  if (i == text.size()) return false;
  long long v = 0;
  for (; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return false;
    v = v * 10 + (text[i] - '0');
    if (v > (1ll << 40)) return false;  // far outside any int range
  }
  *value = text[0] == '-' ? -v : v;
  return *value >= lo && *value <= hi;
}

TEST(FlagsFuzzTest, ParseIntInRangeNeverAcceptsOutsideTheRange) {
  const std::vector<std::string> corpus = {
      "0",     "7",          "-7",          "65535",      "65536",
      "-1",    "2147483647", "-2147483648", "2147483648", "99999999999",
      "007",   "-0",         "1e3",         "0x10",       "+5",
      " 5",    "5 ",         "",            "-"};
  const int bounds[][2] = {{0, 65535},   {1, 256},     {-1, 65535},
                           {-10, 10},    {5, 5},       {0, 0},
                           {INT_MIN, INT_MAX}, {INT_MIN, -1}};
  std::mt19937 rng(11);
  int accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const std::string text = MutateArg(corpus, &rng);
    const int* b = bounds[rng() % (sizeof(bounds) / sizeof(bounds[0]))];
    int got = 12345;
    long long want = 0;
    const bool ok = FlagParser::ParseIntInRange(text, b[0], b[1], &got);
    ASSERT_EQ(ok, ReferenceIntInRange(text, b[0], b[1], &want))
        << "'" << text << "' in [" << b[0] << ", " << b[1] << "]";
    if (ok) {
      ++accepted;
      ASSERT_GE(got, b[0]);
      ASSERT_LE(got, b[1]);
      ASSERT_EQ(got, want);
    }
  }
  EXPECT_GT(accepted, 1000);
}

}  // namespace
}  // namespace edde
