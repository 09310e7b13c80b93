#include "utils/crash.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>

#include <csignal>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "utils/failpoint.h"
#include "utils/json.h"
#include "utils/logging.h"
#include "utils/metrics.h"
#include "utils/run_manifest.h"
#include "utils/trace.h"

namespace edde {
namespace {

// Death tests for the crash flight recorder. Each EXPECT_DEATH statement
// runs in a child process (threadsafe style re-executes the binary), so the
// crash handler, the report file, and the abort all happen off the main
// test process; afterwards the parent inspects what the child left behind.

std::vector<std::string> ListCrashReports(const std::string& dir) {
  std::vector<std::string> reports;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return reports;
  while (dirent* entry = ::readdir(d)) {
    if (std::strncmp(entry->d_name, "edde_crash_", 11) == 0) {
      reports.push_back(dir + "/" + entry->d_name);
    }
  }
  ::closedir(d);
  return reports;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  ::mkdir(dir.c_str(), 0755);
  for (const std::string& stale : ListCrashReports(dir)) {
    ::remove(stale.c_str());
  }
  return dir;
}

class CrashReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(CrashReportTest, CheckFailureWritesReportWithManifestSeed) {
  const std::string dir = FreshDir("crash_check");
  EXPECT_DEATH(
      {
        ManifestSetSeed(424242);
        SetCrashReportDir(dir);
        EDDE_CHECK(1 + 1 == 3) << "intentional test failure";
      },
      "Check failed");

  const std::vector<std::string> reports = ListCrashReports(dir);
  ASSERT_EQ(reports.size(), 1u) << "expected exactly one crash report";
  const std::string report = ReadWholeFile(reports[0]);
  EXPECT_NE(report.find("=== EDDE crash report ==="), std::string::npos);
  EXPECT_NE(report.find("EDDE_CHECK failure"), std::string::npos);
  EXPECT_NE(report.find("run manifest"), std::string::npos);
  EXPECT_NE(report.find("\"seed\":424242"), std::string::npos)
      << "manifest in report must carry the seed set before the crash";
  // The fatal record itself must be the tail of the flight-recorder ring.
  EXPECT_NE(report.find("intentional test failure"), std::string::npos);
  EXPECT_NE(report.find("=== end of report ==="), std::string::npos);
}

TEST_F(CrashReportTest, SignalCrashWritesReportWithOpenSpans) {
  const std::string dir = FreshDir("crash_signal");
  EXPECT_DEATH(
      {
        SetCrashReportDir(dir);
        InstallCrashHandler();
        SetTracePath(::testing::TempDir() + "/crash_signal_trace.json");
        TraceScope open_scope("crash_test/open_span");
        EDDE_LOG(INFO) << "about to fault";
        // Raised, not provoked by a null store: under
        // -fsanitize=undefined -fno-sanitize-recover UBSan reports the
        // store and exits before any SIGSEGV reaches the handler.
        std::raise(SIGSEGV);
      },
      "");

  const std::vector<std::string> reports = ListCrashReports(dir);
  ASSERT_EQ(reports.size(), 1u);
  const std::string report = ReadWholeFile(reports[0]);
  EXPECT_NE(report.find("SIGSEGV"), std::string::npos);
  EXPECT_NE(report.find("about to fault"), std::string::npos)
      << "log ring must include records logged before the signal";
  EXPECT_NE(report.find("crash_test/open_span"), std::string::npos)
      << "open trace spans must be listed";
}

TEST_F(CrashReportTest, MidRunFatalLeavesParseableJsonlAndTrace) {
  // Satellite acceptance: a mid-run EDDE_CHECK failure flushes the metrics
  // JSONL sink and the trace sink before aborting, and the JSONL's first
  // record is the run manifest.
  const std::string dir = FreshDir("crash_flush");
  const std::string jsonl = dir + "/fatal_metrics.jsonl";
  const std::string trace = dir + "/fatal_trace.json";
  EXPECT_DEATH(
      {
        SetCrashReportDir(dir);
        ManifestSetSeed(777);
        MetricsRegistry::Global().SetSinkPath(jsonl);
        SetTracePath(trace);
        MetricsRegistry::Global().GetCounter("crash_test.progress")
            ->Increment(3);
        {
          TraceScope work("crash_test/work");
        }
        EDDE_CHECK(false) << "fatal mid-run";
      },
      "Check failed");

  // The JSONL must parse line by line, manifest first.
  std::ifstream in(jsonl);
  ASSERT_TRUE(in.is_open()) << "fatal path must flush the metrics sink";
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue record;
    const Status status = JsonValue::Parse(line, &record);
    ASSERT_TRUE(status.ok()) << "line " << line_no << ": "
                             << status.ToString();
    if (line_no == 0) {
      EXPECT_EQ(record.GetStringOr("record", ""), "run_manifest");
      const JsonValue* manifest = record.Get("manifest");
      ASSERT_NE(manifest, nullptr);
      EXPECT_DOUBLE_EQ(manifest->GetNumberOr("seed", 0), 777.0);
    }
    ++line_no;
  }
  EXPECT_GT(line_no, 1) << "expected manifest plus at least one metric";

  // The trace file must be complete, loadable JSON with the span present.
  JsonValue root;
  ASSERT_TRUE(JsonValue::ParseFile(trace, &root).ok())
      << "fatal path must flush the trace sink";
  bool found_span = false;
  for (const JsonValue& e : root.Get("traceEvents")->AsArray()) {
    if (e.GetStringOr("name", "") == "crash_test/work") found_span = true;
  }
  EXPECT_TRUE(found_span);
}

TEST_F(CrashReportTest, GracefulShutdownDrainsPoolBeforeFlush) {
  // The shutdown.flush failpoint sits between QuiescePool() and the
  // metrics/trace flush inside GracefulShutdownExit. Crashing there proves
  // two orderings at once: (a) the pool drain happens before the flush —
  // in-flight ParallelFor work finished, so its metric increments are in
  // the registry when the flush runs — and (b) the flush is what makes the
  // JSONL complete: kill the process at the failpoint and the sink file
  // must NOT contain the final records yet.
  const std::string dir = FreshDir("crash_shutdown");
  const std::string jsonl = dir + "/shutdown_metrics.jsonl";
  ::remove(jsonl.c_str());  // TempDir persists across runs
  EXPECT_EXIT(
      {
        (void)failpoint::SetSpec("shutdown.flush=crash:1");
        MetricsRegistry::Global().SetSinkPath(jsonl);
        MetricsRegistry::Global().GetCounter("shutdown_test.progress")
            ->Increment(5);
        RequestShutdown(SIGINT);
        GracefulShutdownExit();  // QuiescePool, then crash at the failpoint
      },
      ::testing::ExitedWithCode(failpoint::kCrashExitCode), "");
  // Killed between drain and flush: the counter never reached the sink.
  EXPECT_EQ(ReadWholeFile(jsonl).find("shutdown_test.progress"),
            std::string::npos)
      << "records before the flush point must not be in the sink yet";

  // Without the failpoint the same sequence exits 128+SIGINT with the
  // counter flushed — the drain didn't deadlock and the flush ran after it.
  EXPECT_EXIT(
      {
        MetricsRegistry::Global().SetSinkPath(jsonl);
        MetricsRegistry::Global().GetCounter("shutdown_test.progress")
            ->Increment(5);
        RequestShutdown(SIGINT);
        GracefulShutdownExit();
      },
      ::testing::ExitedWithCode(128 + SIGINT), "graceful shutdown complete");
  EXPECT_NE(ReadWholeFile(jsonl).find("shutdown_test.progress"),
            std::string::npos)
      << "the graceful path must flush the metrics sink before exiting";
}

TEST(CrashInternalsTest, LogRingKeepsNewestRecords) {
  for (int i = 0; i < 300; ++i) {
    std::string record = "ring filler " + std::to_string(i) + "\n";
    crash_internal::AppendLogRecord(record.data(), record.size());
  }
  char buf[64 * 1024];
  const size_t n = crash_internal::SnapshotLogRing(buf, sizeof(buf));
  ASSERT_GT(n, 0u);
  const std::string text(buf, n);
  EXPECT_NE(text.find("ring filler 299"), std::string::npos);
  // 300 appends through a ~128-slot ring: the oldest must be gone.
  EXPECT_EQ(text.find("ring filler 0\n"), std::string::npos);
}

}  // namespace
}  // namespace edde
