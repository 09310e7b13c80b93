#include "utils/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "utils/logging.h"
#include "utils/status.h"

namespace edde {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    failpoint::Clear();
  }
  void TearDown() override { failpoint::Clear(); }
};

TEST_F(FailpointTest, InactiveSiteIsNoOp) {
  EXPECT_FALSE(failpoint::AnyActive());
  EXPECT_EQ(failpoint::CurrentSpec(), "");
  // Compiled-in sites must be invisible when disarmed.
  EDDE_FAILPOINT("durable.write");
  EXPECT_TRUE(failpoint::Hit("durable.write").ok());
  EXPECT_EQ(failpoint::ShortWriteBytes("durable.write"), 0u);
}

TEST_F(FailpointTest, ErrorActionFailsEveryHit) {
  ASSERT_TRUE(failpoint::SetSpec("durable.write=error").ok());
  EXPECT_TRUE(failpoint::AnyActive());
  EXPECT_EQ(failpoint::CurrentSpec(), "durable.write=error");
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(failpoint::Hit("durable.write").ok());
  }
  // Other sites stay clean.
  EXPECT_TRUE(failpoint::Hit("durable.rename").ok());
}

TEST_F(FailpointTest, BoundedErrorActionRecoversAfterN) {
  ASSERT_TRUE(failpoint::SetSpec("durable.rename=error:2").ok());
  EXPECT_FALSE(failpoint::Hit("durable.rename").ok());
  EXPECT_FALSE(failpoint::Hit("durable.rename").ok());
  // The third hit succeeds — this is what drives the retry-path coverage.
  EXPECT_TRUE(failpoint::Hit("durable.rename").ok());
}

TEST_F(FailpointTest, ShortWriteReportsBytesWithoutConsuming) {
  ASSERT_TRUE(failpoint::SetSpec("durable.write=short_write:7").ok());
  EXPECT_EQ(failpoint::ShortWriteBytes("durable.write"), 7u);
  EXPECT_EQ(failpoint::ShortWriteBytes("durable.write"), 7u);
  EXPECT_EQ(failpoint::ShortWriteBytes("durable.rename"), 0u);
}

TEST_F(FailpointTest, ShortWriteDefaultsTo16Bytes) {
  ASSERT_TRUE(failpoint::SetSpec("durable.write=short_write").ok());
  EXPECT_EQ(failpoint::ShortWriteBytes("durable.write"), 16u);
}

TEST_F(FailpointTest, InvalidSpecsAreRejectedAndLeavePreviousArmed) {
  ASSERT_TRUE(failpoint::SetSpec("durable.write=error").ok());
  EXPECT_FALSE(failpoint::SetSpec("durable.write").ok());
  EXPECT_FALSE(failpoint::SetSpec("durable.write=explode").ok());
  EXPECT_FALSE(failpoint::SetSpec("durable.write=delay").ok());  // needs :N
  EXPECT_FALSE(failpoint::SetSpec("=error").ok());
  // The previous valid spec must still be armed.
  EXPECT_EQ(failpoint::CurrentSpec(), "durable.write=error");
  EXPECT_FALSE(failpoint::Hit("durable.write").ok());
}

TEST_F(FailpointTest, EmptySpecClears) {
  ASSERT_TRUE(failpoint::SetSpec("durable.write=error").ok());
  ASSERT_TRUE(failpoint::SetSpec("").ok());
  EXPECT_FALSE(failpoint::AnyActive());
  EXPECT_TRUE(failpoint::Hit("durable.write").ok());
}

TEST_F(FailpointTest, MultiSiteSpec) {
  ASSERT_TRUE(
      failpoint::SetSpec("durable.write=error:1,durable.fsync=short_write:4")
          .ok());
  EXPECT_FALSE(failpoint::Hit("durable.write").ok());
  EXPECT_TRUE(failpoint::Hit("durable.write").ok());
  EXPECT_EQ(failpoint::ShortWriteBytes("durable.fsync"), 4u);
}

TEST_F(FailpointTest, CrashActionExitsWithCrashExitCode) {
  EXPECT_EXIT(
      {
        (void)failpoint::SetSpec("checkpoint.commit=crash");
        (void)failpoint::Hit("checkpoint.commit");
      },
      ::testing::ExitedWithCode(failpoint::kCrashExitCode), "");
}

TEST_F(FailpointTest, CrashOnNthHit) {
  EXPECT_EXIT(
      {
        (void)failpoint::SetSpec("trainer.epoch=crash:3");
        (void)failpoint::Hit("trainer.epoch");  // 1
        (void)failpoint::Hit("trainer.epoch");  // 2
        (void)failpoint::Hit("trainer.epoch");  // 3 -> _exit(42)
        std::exit(0);                           // must not be reached
      },
      ::testing::ExitedWithCode(failpoint::kCrashExitCode), "");
}

TEST_F(FailpointTest, DelayActionReturnsOk) {
  ASSERT_TRUE(failpoint::SetSpec("durable.dirsync=delay:1").ok());
  EXPECT_TRUE(failpoint::Hit("durable.dirsync").ok());
}

TEST_F(FailpointTest, InitFromEnvArmsSpec) {
  EXPECT_EXIT(
      {
        ::setenv("EDDE_FAILPOINTS", "durable.rename=error", 1);
        failpoint::InitFromEnv();
        const bool armed = failpoint::AnyActive() &&
                           !failpoint::Hit("durable.rename").ok();
        std::exit(armed ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

// ---------------------------------------------------------------------------
// SetSpec fuzzing: seeded mutants of valid specs
// ---------------------------------------------------------------------------

// The spec grammar of failpoint.h, written independently of the parser:
// comma-separated entries, empty ones skipped; each is site=action with
// an optional :N of decimal digits; crash needs N ≥ 1, delay needs an N.
bool ReferenceAccepts(const std::string& spec) {
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(start, comma - start);
    start = comma + 1;
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) return false;
    const std::string rhs = entry.substr(eq + 1);
    const size_t colon = rhs.find(':');
    const std::string action = rhs.substr(0, colon);
    const bool has_param = colon != std::string::npos;
    const std::string param = has_param ? rhs.substr(colon + 1) : "";
    if (has_param) {
      if (param.empty()) return false;
      for (char c : param) {
        if (c < '0' || c > '9') return false;
      }
      // At most 2^63 − 1.
      const std::string digits = param.substr(
          std::min(param.find_first_not_of('0'), param.size()));
      if (digits.size() > 19 ||
          (digits.size() == 19 && digits > "9223372036854775807")) {
        return false;
      }
    }
    if (action == "crash") {
      if (has_param && param.find_first_not_of('0') == std::string::npos) {
        return false;  // crash:0
      }
    } else if (action == "delay") {
      if (!has_param) return false;
    } else if (action != "error" && action != "short_write") {
      return false;
    }
  }
  return true;
}

std::string MutateSpec(const std::vector<std::string>& corpus,
                       std::mt19937* rng) {
  static const std::string kAlphabet = "abcdelorswy_.=:,-+ 0123456789\t";
  const auto pick = [rng](size_t n) {
    return static_cast<size_t>((*rng)() % n);
  };
  std::string s = corpus[pick(corpus.size())];
  const int edits = 1 + static_cast<int>(pick(4));
  for (int e = 0; e < edits; ++e) {
    const size_t at = s.empty() ? 0 : pick(s.size() + 1);
    switch (pick(6)) {
      case 0:  // insert a grammar-relevant character
        s.insert(at, 1, kAlphabet[pick(kAlphabet.size())]);
        break;
      case 1:  // delete a run
        if (!s.empty() && at < s.size()) s.erase(at, 1 + pick(4));
        break;
      case 2:  // overwrite a character
        if (at < s.size()) s[at] = kAlphabet[pick(kAlphabet.size())];
        break;
      case 3:  // splice in another corpus entry
        s.insert(at, "," + corpus[pick(corpus.size())]);
        break;
      case 4:  // a long or huge parameter
        s.insert(at, pick(2) == 0 ? "99999999999999999999" : "0000007");
        break;
      default:  // any byte, NUL and high bytes included
        s.insert(at, 1, static_cast<char>(pick(256)));
        break;
    }
  }
  return s;
}

TEST_F(FailpointTest, FuzzedSpecsAreAcceptedExactlyWhenValid) {
  const std::vector<std::string> corpus = {
      "durable.write=error",
      "durable.write=error:3",
      "durable.rename=crash",
      "durable.rename=crash:2",
      "durable.fsync=short_write",
      "durable.fsync=short_write:4",
      "serve.batch=delay:5",
      "durable.write=error:1,durable.fsync=short_write:4",
      "a=error,,b=delay:0,",
  };
  for (const std::string& spec : corpus) {
    ASSERT_TRUE(failpoint::SetSpec(spec).ok()) << spec;
    EXPECT_EQ(failpoint::CurrentSpec(), spec);
  }
  // Arming logs a warning per spec; keep the fuzz loop quiet.
  const LogLevel saved = MinLogLevel();
  SetMinLogLevel(LogLevel::kError);
  std::mt19937 rng(20261019);
  int accepted = 0, refused = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string spec = MutateSpec(corpus, &rng);
    const std::string before = failpoint::CurrentSpec();
    const Status s = failpoint::SetSpec(spec);
    ASSERT_TRUE(s.ok() || s.code() == StatusCode::kInvalidArgument)
        << s.ToString();
    ASSERT_EQ(s.ok(), ReferenceAccepts(spec)) << "spec '" << spec << "'";
    if (s.ok()) {
      ++accepted;
      ASSERT_EQ(failpoint::CurrentSpec(), spec);
      // An accepted spec parses again from what CurrentSpec reports.
      ASSERT_TRUE(failpoint::SetSpec(failpoint::CurrentSpec()).ok());
    } else {
      ++refused;
      ASSERT_EQ(failpoint::CurrentSpec(), before) << "spec '" << spec << "'";
    }
  }
  SetMinLogLevel(saved);
  // The mutants reach both outcomes often.
  EXPECT_GT(accepted, 400);
  EXPECT_GT(refused, 400);
}

}  // namespace
}  // namespace edde
