#include "utils/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "utils/json.h"
#include "utils/threadpool.h"

namespace edde {
namespace {

// Structural validation of the exported Chrome trace_event JSON, driven by
// the repo's own JsonValue reader: balanced (complete) events with
// monotonic timestamps, one named track per pool worker, counter events on
// their own tracks, and the run manifest embedded in otherData.

class TraceExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetNumThreads(4);
    ResetTraceBuffers();
    SetTracePath(::testing::TempDir() + "/trace_test_sink.json");
  }
  void TearDown() override {
    SetTracePath("");
    ResetTraceBuffers();
    SetNumThreads(0);
  }
};

JsonValue DumpAndParse() {
  const std::string path = ::testing::TempDir() + "/trace_test_export.json";
  EXPECT_TRUE(DumpTraceTo(path).ok());
  JsonValue root;
  const Status status = JsonValue::ParseFile(path, &root);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return root;
}

TEST_F(TraceExportTest, DisabledWithoutPath) {
  SetTracePath("");
  EXPECT_FALSE(TraceEnabled());
  EXPECT_TRUE(DumpTrace().ok());  // no sink configured: OK no-op
  SetTracePath("somewhere.json");
  EXPECT_TRUE(TraceEnabled());
}

TEST_F(TraceExportTest, ExportIsStructurallyValidUnderParallelFor) {
  SetTraceThreadName("main");
  {
    TraceScope outer("trace_test/outer");
    // Rendezvous workload: four chunks that each wait until all four have
    // started. The caller drains the queue too, so this pins exactly one
    // chunk to each of the four pool threads even when the scheduler would
    // otherwise let the caller run everything — worker-tid attribution
    // stays deterministic on a loaded single-core CI box.
    std::atomic<int> started{0};
    ParallelFor(0, 4, 1, [&started](int64_t begin, int64_t end) {
      static const TraceRegion* const region =
          GetTraceRegion("trace_test/chunk");
      TraceScope chunk(region);
      started.fetch_add(static_cast<int>(end - begin));
      while (started.load() < 4) std::this_thread::yield();
    });
    TraceCounter("trace_test/progress", 1.0);
    TraceCounter("trace_test/progress", 2.0);
  }

  const JsonValue root = DumpAndParse();
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.GetStringOr("displayTimeUnit", ""), "ms");

  // Run manifest rides along in otherData.
  const JsonValue* other = root.Get("otherData");
  ASSERT_NE(other, nullptr);
  const JsonValue* manifest = other->Get("manifest");
  ASSERT_NE(manifest, nullptr);
  EXPECT_DOUBLE_EQ(manifest->GetNumberOr("schema", 0), 1.0);
  EXPECT_GT(manifest->GetNumberOr("pid", 0), 0.0);
  EXPECT_DOUBLE_EQ(other->GetNumberOr("dropped_records", -1), 0.0);

  const JsonValue* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::map<double, std::string> track_names;  // tid -> thread_name
  std::vector<const JsonValue*> spans;
  std::vector<const JsonValue*> counters;
  for (const JsonValue& e : events->AsArray()) {
    const std::string ph = e.GetStringOr("ph", "");
    ASSERT_TRUE(ph == "M" || ph == "X" || ph == "C") << "unknown ph " << ph;
    if (ph == "M" && e.GetStringOr("name", "") == "thread_name") {
      track_names[e.GetNumberOr("tid", -1)] =
          e.Get("args")->GetStringOr("name", "");
    } else if (ph == "X") {
      spans.push_back(&e);
    } else if (ph == "C") {
      counters.push_back(&e);
    }
  }

  // One track per pool worker plus the named main thread. With a 4-thread
  // pool, ParallelFor hands chunks to 3 workers and the caller.
  std::set<std::string> names;
  for (const auto& [tid, name] : track_names) names.insert(name);
  EXPECT_TRUE(names.count("main")) << "main track missing";
  EXPECT_TRUE(names.count("pool/worker 1")) << "worker track missing";
  EXPECT_GE(track_names.size(), 4u);

  // Complete events are inherently balanced; check counts, payloads, and
  // that every span lands on a registered track.
  ASSERT_FALSE(spans.empty());
  int outer_count = 0, chunk_count = 0;
  double prev_ts = -1.0;
  for (const JsonValue* s : spans) {
    EXPECT_GE(s->GetNumberOr("dur", -1), 0.0);
    const double ts = s->GetNumberOr("ts", -1);
    EXPECT_GE(ts, prev_ts) << "timestamps must be sorted";
    prev_ts = ts;
    EXPECT_TRUE(track_names.count(s->GetNumberOr("tid", -1)))
        << "span on unregistered tid";
    const std::string name = s->GetStringOr("name", "");
    if (name == "trace_test/outer") ++outer_count;
    if (name == "trace_test/chunk") ++chunk_count;
  }
  EXPECT_EQ(outer_count, 1);
  EXPECT_EQ(chunk_count, 4);

  // The rendezvous forced one chunk per pool thread, so the four chunk
  // spans must sit on four distinct tids — three of them worker tracks.
  double main_tid = -1;
  for (const auto& [tid, name] : track_names) {
    if (name == "main") main_tid = tid;
  }
  std::set<double> chunk_tids;
  int chunks_off_main = 0;
  for (const JsonValue* s : spans) {
    if (s->GetStringOr("name", "") == "trace_test/chunk") {
      chunk_tids.insert(s->GetNumberOr("tid", -1));
      if (s->GetNumberOr("tid", -1) != main_tid) ++chunks_off_main;
    }
  }
  EXPECT_EQ(chunk_tids.size(), 4u);
  EXPECT_EQ(chunks_off_main, 3);

  // Counter samples keep their own track name and value payload.
  int progress_samples = 0;
  for (const JsonValue* c : counters) {
    if (c->GetStringOr("name", "") == "trace_test/progress") {
      ++progress_samples;
      EXPECT_GT(c->Get("args")->GetNumberOr("value", -1), 0.0);
    }
  }
  EXPECT_EQ(progress_samples, 2);
}

TEST_F(TraceExportTest, NestedSpansStayProperlyNested) {
  {
    TraceScope a("trace_test/a");
    {
      TraceScope b("trace_test/b");
      TraceScope c("trace_test/c");
    }
    TraceScope d("trace_test/d");
  }

  const JsonValue root = DumpAndParse();
  // Per tid, spans sorted by ts must form a proper forest: each span either
  // follows the previous or sits entirely inside a still-open ancestor.
  std::map<double, std::vector<std::pair<double, double>>> by_tid;
  for (const JsonValue& e : root.Get("traceEvents")->AsArray()) {
    if (e.GetStringOr("ph", "") != "X") continue;
    by_tid[e.GetNumberOr("tid", -1)].emplace_back(
        e.GetNumberOr("ts", 0), e.GetNumberOr("dur", 0));
  }
  for (const auto& [tid, intervals] : by_tid) {
    std::vector<double> open_ends;
    for (const auto& [ts, dur] : intervals) {
      // A span ending exactly at `ts` is a sibling, not an ancestor.
      while (!open_ends.empty() && open_ends.back() <= ts) {
        open_ends.pop_back();
      }
      if (!open_ends.empty()) {
        EXPECT_LE(ts + dur, open_ends.back())
            << "span on tid " << tid << " overlaps its ancestor";
      }
      open_ends.push_back(ts + dur);
    }
  }
}

TEST_F(TraceExportTest, OpenSpanSnapshotListsActiveScopes) {
  TraceScope outer("trace_test/open_outer");
  TraceScope inner("trace_test/open_inner");
  char buf[4096];
  const size_t n = trace_internal::SnapshotOpenSpans(buf, sizeof(buf));
  ASSERT_GT(n, 0u);
  const std::string text(buf, n);
  EXPECT_NE(text.find("trace_test/open_outer"), std::string::npos);
  EXPECT_NE(text.find("trace_test/open_inner"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Request tracing (trace ids)
// ---------------------------------------------------------------------------

TEST(TraceIdTest, FormatParseRoundTrip) {
  EXPECT_EQ(FormatTraceId(0xdeadbeefULL), "00000000deadbeef");
  EXPECT_EQ(ParseTraceId("00000000deadbeef"), 0xdeadbeefULL);
  EXPECT_EQ(ParseTraceId("DEADBEEF"), 0xdeadbeefULL);  // case-insensitive
  EXPECT_EQ(ParseTraceId("f"), 0xfULL);                // short forms accepted
  for (const char* bad : {"", "xyz", "12g4", "0x12", " 12",
                          "00000000000000001"}) {  // 17 digits
    EXPECT_FALSE(IsValidTraceId(bad)) << bad;
    EXPECT_EQ(ParseTraceId(bad), 0u) << bad;
  }
  EXPECT_TRUE(IsValidTraceId("0000000000000000"));  // 0 is valid spelling...
  EXPECT_EQ(ParseTraceId("0000000000000000"), 0u);  // ...meaning "none"
}

TEST(TraceIdTest, MintedIdsAreNonzeroAndDistinct) {
  const uint64_t a = MintTraceId();
  const uint64_t b = MintTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(TraceIdTest, ScopedTraceIdInstallsAndRestores) {
  EXPECT_EQ(CurrentTraceId(), 0u);
  {
    ScopedTraceId outer(0x111);
    EXPECT_EQ(CurrentTraceId(), 0x111u);
    {
      ScopedTraceId inner(0x222);
      EXPECT_EQ(CurrentTraceId(), 0x222u);
      ScopedTraceId noop(0);  // installing 0 is a no-op, not a clear
      EXPECT_EQ(CurrentTraceId(), 0x222u);
    }
    EXPECT_EQ(CurrentTraceId(), 0x111u);
  }
  EXPECT_EQ(CurrentTraceId(), 0u);
}

TEST_F(TraceExportTest, SpansCarryAmbientTraceIdIntoArgs) {
  {
    ScopedTraceId id(0xfeedULL);
    TraceScope tagged("trace_test/tagged");
  }
  {
    TraceScope untagged("trace_test/untagged");
  }
  const JsonValue root = DumpAndParse();
  bool saw_tagged = false, saw_untagged = false;
  for (const JsonValue& e : root.Get("traceEvents")->AsArray()) {
    const std::string name = e.GetStringOr("name", "");
    if (name == "trace_test/tagged") {
      saw_tagged = true;
      const JsonValue* args = e.Get("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->GetStringOr("trace_id", ""), FormatTraceId(0xfeedULL));
    } else if (name == "trace_test/untagged") {
      saw_untagged = true;
      // No ambient id -> no args.trace_id (absent, not empty or zero).
      const JsonValue* args = e.Get("args");
      if (args != nullptr) {
        EXPECT_FALSE(args->Has("trace_id"));
      }
    }
  }
  EXPECT_TRUE(saw_tagged);
  EXPECT_TRUE(saw_untagged);
}

TEST_F(TraceExportTest, TraceCompleteSpanRecordsExplicitIdAndHistogram) {
  const TraceRegion* region = GetTraceRegion("trace_test/complete");
  const int64_t before = region->histogram->Count();
  const auto t0 = std::chrono::steady_clock::now();
  const auto t1 = t0 + std::chrono::milliseconds(2);
  TraceCompleteSpan(region, t0, t1, 0xabcULL);
  // end < begin clamps to a zero-length span instead of going negative.
  TraceCompleteSpan(region, t1, t0, 0xabcULL);
  EXPECT_EQ(region->histogram->Count(), before + 2);

  const JsonValue root = DumpAndParse();
  int spans = 0;
  for (const JsonValue& e : root.Get("traceEvents")->AsArray()) {
    if (e.GetStringOr("name", "") != "trace_test/complete") continue;
    ++spans;
    ASSERT_NE(e.Get("args"), nullptr);
    EXPECT_EQ(e.Get("args")->GetStringOr("trace_id", ""),
              FormatTraceId(0xabcULL));
    EXPECT_GE(e.GetNumberOr("dur", -1.0), 0.0);
  }
  EXPECT_EQ(spans, 2);
}

TEST_F(TraceExportTest, NoSpansRecordedWhenDisabled) {
  SetTracePath("");
  ResetTraceBuffers();
  {
    TraceScope off("trace_test/disabled");
  }
  SetTracePath(::testing::TempDir() + "/trace_test_sink.json");
  const JsonValue root = DumpAndParse();
  for (const JsonValue& e : root.Get("traceEvents")->AsArray()) {
    EXPECT_NE(e.GetStringOr("name", ""), "trace_test/disabled");
  }
  // The histogram side still aggregates, trace sink or not.
  EXPECT_GE(TraceHistogram("trace_test/disabled")->Count(), 1);
}

}  // namespace
}  // namespace edde
