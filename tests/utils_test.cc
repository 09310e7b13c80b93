#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "utils/flags.h"
#include "utils/serialize.h"
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

TEST(FlagsTest, HelpRequested) {
  FlagParser flags;
  flags.Define("x", "1", "");
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_TRUE(flags.help_requested());
}

// ---------------------------------------------------------------------------
// Binary serialization
// ---------------------------------------------------------------------------

TEST(SerializeTest, RoundTripsAllTypes) {
  const std::string path = ::testing::TempDir() + "/serialize_roundtrip.bin";
  {
    BinaryWriter w(path);
    ASSERT_TRUE(w.status().ok());
    w.WriteU32(7);
    w.WriteU64(1ull << 40);
    w.WriteI64(-123);
    w.WriteF32(2.5f);
    w.WriteString("edde");
    const float xs[3] = {1.0f, -2.0f, 3.5f};
    w.WriteFloats(xs, 3);
    ASSERT_TRUE(w.Finish().ok());
  }
  BinaryReader r(path);
  ASSERT_TRUE(r.status().ok());
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  float f32;
  std::string s;
  float xs[3];
  ASSERT_TRUE(r.ReadU32(&u32));
  ASSERT_TRUE(r.ReadU64(&u64));
  ASSERT_TRUE(r.ReadI64(&i64));
  ASSERT_TRUE(r.ReadF32(&f32));
  ASSERT_TRUE(r.ReadString(&s));
  ASSERT_TRUE(r.ReadFloats(xs, 3));
  EXPECT_EQ(u32, 7u);
  EXPECT_EQ(u64, 1ull << 40);
  EXPECT_EQ(i64, -123);
  EXPECT_FLOAT_EQ(f32, 2.5f);
  EXPECT_EQ(s, "edde");
  EXPECT_FLOAT_EQ(xs[2], 3.5f);
}

TEST(SerializeTest, TruncatedFileIsCorruption) {
  const std::string path = ::testing::TempDir() + "/serialize_truncated.bin";
  {
    BinaryWriter w(path);
    w.WriteU32(1);
    ASSERT_TRUE(w.Finish().ok());
  }
  BinaryReader r(path);
  uint64_t v;
  EXPECT_FALSE(r.ReadU64(&v));
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(SerializeTest, MissingFileIsIOError) {
  BinaryReader r("/nonexistent/path/file.bin");
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace edde
