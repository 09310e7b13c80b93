#include "utils/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "utils/threadpool.h"
#include "utils/trace.h"

namespace edde {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// ---------------------------------------------------------------- Counter --

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.Value(), 0);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42);
  c.Reset();
  EXPECT_EQ(c.Value(), 0);
}

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  // The sharded counter must not lose updates under the thread pool; the
  // ParallelFor join supplies the happens-before edge that makes the
  // post-region Value() read exact. Run under TSan in CI.
  SetNumThreads(4);
  Counter c;
  constexpr int64_t kTasks = 100, kPerTask = 1000;
  ParallelFor(0, kTasks, [&](int64_t) {
    for (int64_t i = 0; i < kPerTask; ++i) c.Increment();
  });
  EXPECT_EQ(c.Value(), kTasks * kPerTask);
  SetNumThreads(0);
}

// ------------------------------------------------------------------ Gauge --

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(2.5);
  EXPECT_EQ(g.Value(), 2.5);
  g.Add(-1.0);
  EXPECT_EQ(g.Value(), 1.5);
}

// -------------------------------------------------------------- Histogram --

TEST(HistogramTest, EmptyHistogramReadsAsZero) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0);
  EXPECT_EQ(h.Sum(), 0.0);
  EXPECT_EQ(h.Min(), 0.0);
  EXPECT_EQ(h.Max(), 0.0);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.ApproxQuantile(0.5), 0.0);
}

TEST(HistogramTest, ExactStatsAreExact) {
  Histogram h;
  h.Record(0.001);
  h.Record(0.004);
  h.Record(0.010);
  EXPECT_EQ(h.Count(), 3);
  EXPECT_DOUBLE_EQ(h.Sum(), 0.015);
  EXPECT_DOUBLE_EQ(h.Min(), 0.001);
  EXPECT_DOUBLE_EQ(h.Max(), 0.010);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.005);
}

TEST(HistogramTest, NegativeAndNonFiniteClampToZero) {
  Histogram h;
  h.Record(-1.0);
  h.Record(std::numeric_limits<double>::quiet_NaN());
  h.Record(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.Count(), 3);
  EXPECT_EQ(h.Sum(), 0.0);
  EXPECT_EQ(h.Min(), 0.0);
  EXPECT_EQ(h.Max(), 0.0);
}

TEST(HistogramTest, BucketCountsCoverEverySample) {
  Histogram h;
  for (int i = 0; i < 100; ++i) {
    h.Record(1e-6 * (i + 1));
  }
  const std::vector<int64_t> buckets = h.BucketCounts();
  ASSERT_EQ(buckets.size(), static_cast<size_t>(Histogram::kNumBuckets));
  int64_t total = 0;
  for (int64_t b : buckets) total += b;
  EXPECT_EQ(total, 100);
}

TEST(HistogramTest, BucketUpperBoundsAreMonotonic) {
  for (int i = 0; i + 1 < Histogram::kNumBuckets; ++i) {
    EXPECT_LT(Histogram::BucketUpperBound(i),
              Histogram::BucketUpperBound(i + 1));
  }
  EXPECT_TRUE(std::isinf(
      Histogram::BucketUpperBound(Histogram::kNumBuckets - 1)));
}

TEST(HistogramTest, ApproxQuantileBracketsTheTrueValue) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Record(0.001);  // all mass in one bucket
  const double p50 = h.ApproxQuantile(0.5);
  // The bucket upper bound overestimates by at most 2x.
  EXPECT_GE(p50, 0.001);
  EXPECT_LE(p50, 0.002 + 1e-12);
}

TEST(HistogramTest, ConcurrentRecordsAreExactAfterJoin) {
  SetNumThreads(4);
  Histogram h;
  constexpr int64_t kTasks = 100, kPerTask = 500, kN = kTasks * kPerTask;
  ParallelFor(0, kTasks, [&](int64_t) {
    for (int64_t i = 0; i < kPerTask; ++i) h.Record(1.0);
  });
  EXPECT_EQ(h.Count(), kN);
  EXPECT_DOUBLE_EQ(h.Sum(), static_cast<double>(kN));
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 1.0);
  SetNumThreads(0);
}

TEST(HistogramTest, ResetRestoresEmptyState) {
  Histogram h;
  h.Record(0.5);
  h.Reset();
  EXPECT_EQ(h.Count(), 0);
  EXPECT_EQ(h.Min(), 0.0);
  EXPECT_EQ(h.Max(), 0.0);
  h.Record(0.25);  // usable after Reset
  EXPECT_EQ(h.Count(), 1);
  EXPECT_DOUBLE_EQ(h.Min(), 0.25);
}

// ------------------------------------------------------------ JsonBuilder --

TEST(JsonBuilderTest, BuildsFlatObjects) {
  const std::string json = JsonBuilder()
                               .Add("name", "epoch")
                               .Add("value", int64_t{7})
                               .Add("ok", true)
                               .Build();
  EXPECT_EQ(json, "{\"name\":\"epoch\",\"value\":7,\"ok\":true}");
}

TEST(JsonBuilderTest, EscapesStrings) {
  const std::string json =
      JsonBuilder().Add("k", "a\"b\\c\n\t").Build();
  EXPECT_EQ(json, "{\"k\":\"a\\\"b\\\\c\\n\\t\"}");
}

TEST(JsonBuilderTest, NonFiniteDoublesBecomeNull) {
  const std::string json =
      JsonBuilder()
          .Add("nan", std::numeric_limits<double>::quiet_NaN())
          .Add("inf", std::numeric_limits<double>::infinity())
          .Add("x", 1.5)
          .Build();
  EXPECT_EQ(json, "{\"nan\":null,\"inf\":null,\"x\":1.5}");
}

TEST(JsonBuilderTest, AddRawSplicesVerbatim) {
  const std::string json =
      JsonBuilder().AddRaw("buckets", "[[1,2],[3,4]]").Build();
  EXPECT_EQ(json, "{\"buckets\":[[1,2],[3,4]]}");
}

// --------------------------------------------------------------- Registry --

TEST(MetricsRegistryTest, InstrumentPointersAreStableAndShared) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* a = reg.GetCounter("test.registry.stable");
  Counter* b = reg.GetCounter("test.registry.stable");
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(b->Value(), 3);
  // Reset zeroes in place; cached pointers stay valid.
  reg.Reset();
  EXPECT_EQ(a->Value(), 0);
  a->Increment();
  EXPECT_EQ(b->Value(), 1);
}

TEST(MetricsRegistryTest, EventsAreDarkWithoutASink) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.SetSinkPath("");
  EXPECT_FALSE(reg.events_enabled());
  reg.EmitEvent("{\"dropped\":true}");  // no-op, must not crash
}

TEST(MetricsRegistryTest, DumpJsonlRoundTrips) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Reset();
  const std::string path = TempPath("metrics_roundtrip.jsonl");
  reg.SetSinkPath(path);
  EXPECT_TRUE(reg.events_enabled());

  reg.GetCounter("test.dump.counter")->Increment(5);
  reg.GetGauge("test.dump.gauge")->Set(2.5);
  reg.GetHistogram("test.dump.hist")->Record(0.25);
  reg.EmitEvent(
      JsonBuilder().Add("record", "unit_test").Add("epoch", 1).Build());

  ASSERT_TRUE(reg.DumpJsonl(path).ok());
  reg.SetSinkPath("");

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_FALSE(lines.empty());
  bool saw_event = false, saw_counter = false, saw_gauge = false,
       saw_hist = false;
  for (const std::string& line : lines) {
    // Every line is one flat JSON object.
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"record\":\"unit_test\"") != std::string::npos) {
      saw_event = true;
      EXPECT_NE(line.find("\"epoch\":1"), std::string::npos);
    }
    if (line.find("\"test.dump.counter\"") != std::string::npos) {
      saw_counter = true;
      EXPECT_NE(line.find("\"value\":5"), std::string::npos);
    }
    if (line.find("\"test.dump.gauge\"") != std::string::npos) {
      saw_gauge = true;
      EXPECT_NE(line.find("2.5"), std::string::npos);
    }
    if (line.find("\"test.dump.hist\"") != std::string::npos) {
      saw_hist = true;
      EXPECT_NE(line.find("\"count\":1"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_event);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_hist);
}

TEST(MetricsRegistryTest, EventOrderIsPreserved) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Reset();
  const std::string path = TempPath("metrics_order.jsonl");
  reg.SetSinkPath(path);
  for (int i = 0; i < 5; ++i) {
    reg.EmitEvent(JsonBuilder().Add("seq", i).Build());
  }
  ASSERT_TRUE(reg.DumpJsonl(path).ok());
  reg.SetSinkPath("");
  const std::vector<std::string> lines = ReadLines(path);
  int next = 0;
  for (const std::string& line : lines) {
    std::ostringstream want;
    want << "{\"seq\":" << next << "}";
    if (line == want.str()) ++next;
  }
  EXPECT_EQ(next, 5);
}

TEST(MetricsRegistryTest, DumpToUnwritablePathIsIOError) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const Status s = reg.DumpJsonl("/nonexistent-dir/metrics.jsonl");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

TEST(MetricsRegistryTest, DumpToSinkWithoutSinkIsOkNoop) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.SetSinkPath("");
  EXPECT_TRUE(reg.DumpToSink().ok());
}

TEST(MetricsRegistryTest, PrintSummaryRendersInstruments) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Reset();
  reg.GetCounter("test.summary.counter")->Increment(9);
  TraceHistogram("test.summary.region")->Record(0.5);
  std::ostringstream os;
  reg.PrintSummary(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("test.summary.counter"), std::string::npos);
  EXPECT_NE(out.find("test.summary.region"), std::string::npos);
  reg.Reset();
}

// ------------------------------------------------- Snapshot + exposition --

TEST(MetricsSnapshotTest, HistogramSnapshotAgreesWithLiveAccessors) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Reset();
  Histogram* h = reg.GetHistogram("test.snapshot.hist");
  for (int i = 1; i <= 100; ++i) h->Record(i * 1e-3);

  const HistogramSnapshot snap = h->Snapshot();
  EXPECT_EQ(snap.count, h->Count());
  EXPECT_DOUBLE_EQ(snap.sum, h->Sum());
  EXPECT_DOUBLE_EQ(snap.min, h->Min());
  EXPECT_DOUBLE_EQ(snap.max, h->Max());
  EXPECT_DOUBLE_EQ(snap.mean, h->Mean());
  // Quantiles in the snapshot ARE the exposition/PrintSummary quantiles —
  // one shared derivation, so the two surfaces can never disagree.
  EXPECT_DOUBLE_EQ(snap.p50, h->ApproxQuantile(0.5));
  EXPECT_DOUBLE_EQ(snap.p95, h->ApproxQuantile(0.95));
  EXPECT_DOUBLE_EQ(snap.p99, h->ApproxQuantile(0.99));
  // Bucket counts cover every sample; bounds strictly increase.
  int64_t bucketed = 0;
  double prev = -1.0;
  for (const auto& [bound, count] : snap.buckets) {
    EXPECT_GT(bound, prev);
    prev = bound;
    bucketed += count;
  }
  EXPECT_EQ(bucketed, snap.count);
  reg.Reset();
}

TEST(MetricsSnapshotTest, RegistrySnapshotCollectsAllKinds) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Reset();
  reg.GetCounter("test.snap.counter")->Increment(3);
  reg.GetGauge("test.snap.gauge")->Set(2.5);
  reg.GetHistogram("test.snap.hist")->Record(0.25);

  const MetricsSnapshot snap = reg.Snapshot();
  auto find_counter = [&](const std::string& name) -> int64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    return -1;
  };
  EXPECT_EQ(find_counter("test.snap.counter"), 3);
  bool saw_gauge = false, saw_hist = false;
  for (const auto& [n, v] : snap.gauges) {
    if (n == "test.snap.gauge") {
      saw_gauge = true;
      EXPECT_DOUBLE_EQ(v, 2.5);
    }
  }
  for (const auto& [n, h] : snap.histograms) {
    if (n == "test.snap.hist") {
      saw_hist = true;
      EXPECT_EQ(h.count, 1);
    }
  }
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_hist);
  reg.Reset();
}

TEST(PrometheusExpositionTest, RendersWellFormedFamilies) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Reset();
  reg.GetCounter("serve.test/counter")->Increment(7);  // '/' and '.' sanitize
  reg.GetGauge("test.expo.gauge")->Set(1.5);
  Histogram* h = reg.GetHistogram("test.expo.seconds");
  for (int i = 1; i <= 10; ++i) h->Record(i * 1e-3);

  const std::string text = reg.RenderPrometheusText();
  // Sanitized, prefixed names; native types declared.
  EXPECT_NE(text.find("# TYPE edde_serve_test_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("edde_serve_test_counter 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE edde_test_expo_gauge gauge"),
            std::string::npos);
  EXPECT_NE(text.find("edde_test_expo_gauge 1.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE edde_test_expo_seconds histogram"),
            std::string::npos);
  // Cumulative buckets terminated by +Inf == count, plus sum/count.
  EXPECT_NE(text.find("edde_test_expo_seconds_bucket{le=\"+Inf\"} 10"),
            std::string::npos);
  EXPECT_NE(text.find("edde_test_expo_seconds_count 10"), std::string::npos);
  // Quantile estimates ride alongside as sibling gauge families.
  EXPECT_NE(text.find("edde_test_expo_seconds_quantile{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("edde_test_expo_seconds_min"), std::string::npos);
  EXPECT_NE(text.find("edde_test_expo_seconds_max"), std::string::npos);
  reg.Reset();
}

TEST(PrometheusExpositionTest, BucketCountsAreCumulativeAndMonotonic) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Reset();
  Histogram* h = reg.GetHistogram("test.cumulative.seconds");
  for (int i = 0; i < 1000; ++i) h->Record((i % 97) * 1e-4);
  const std::string text = reg.RenderPrometheusText();

  // Walk the family's _bucket lines: counts must be non-decreasing and the
  // +Inf bucket must equal the total count.
  int64_t prev = -1, inf_count = -1;
  size_t pos = 0;
  const std::string needle = "edde_test_cumulative_seconds_bucket{le=\"";
  int buckets_seen = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    const size_t close = text.find("\"} ", pos);
    ASSERT_NE(close, std::string::npos);
    const std::string le =
        text.substr(pos + needle.size(), close - pos - needle.size());
    const size_t eol = text.find('\n', close);
    const int64_t count = std::stoll(text.substr(close + 3, eol - close - 3));
    EXPECT_GE(count, prev) << "bucket le=" << le << " went backwards";
    prev = count;
    if (le == "+Inf") inf_count = count;
    ++buckets_seen;
    pos = eol;
  }
  EXPECT_GT(buckets_seen, 1);
  EXPECT_EQ(inf_count, 1000);
  reg.Reset();
}

TEST(PrometheusExpositionTest, OutputIsNaNFreeAndParsesAsNumbers) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Reset();
  reg.GetGauge("test.undefined.gauge")->Set(std::numeric_limits<double>::quiet_NaN());
  reg.GetGauge("test.unbounded.gauge")
      ->Set(std::numeric_limits<double>::infinity());
  reg.GetHistogram("test.empty.hist");  // zero samples
  const std::string text = reg.RenderPrometheusText();
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(text.find("NaN"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos) << "(+Inf label excepted)";
  // Every non-comment line is exactly "<name-or-labeled-name> <value>" and
  // the value parses as a finite double.
  std::istringstream lines(text);
  std::string line;
  int parsed = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    size_t end = 0;
    const double v = std::stod(line.substr(sp + 1), &end);
    EXPECT_EQ(end, line.size() - sp - 1) << line;
    EXPECT_TRUE(std::isfinite(v)) << line;
    ++parsed;
  }
  EXPECT_GT(parsed, 3);
  reg.Reset();
}

TEST(PrometheusExpositionTest, ScrapeWhileHammeringNeverBlocksWriters) {
  // TSan coverage for the no-lock-on-write-path contract: four pool
  // threads hammer a counter and a histogram while the main thread
  // scrapes continuously. Writes must all land (exact count) and the
  // scrape must always render a parseable snapshot.
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Reset();
  SetNumThreads(4);
  Counter* c = reg.GetCounter("test.hammer.counter");
  Histogram* h = reg.GetHistogram("test.hammer.hist");
  constexpr int64_t kN = 20000;
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load()) {
      const std::string text = reg.RenderPrometheusText();
      EXPECT_NE(text.find("edde_test_hammer_counter"), std::string::npos);
    }
  });
  constexpr int64_t kPerTask = 64;
  ParallelFor(0, (kN + kPerTask - 1) / kPerTask, [&](int64_t task) {
    const int64_t end = std::min(kN, (task + 1) * kPerTask);
    for (int64_t i = task * kPerTask; i < end; ++i) {
      c->Increment();
      h->Record(static_cast<double>(i % 13) * 1e-4);
    }
  });
  done.store(true);
  scraper.join();
  EXPECT_EQ(c->Value(), kN);
  EXPECT_EQ(h->Count(), kN);
  SetNumThreads(0);
  reg.Reset();
}

TEST(MetricsRegistryTest, PrintSummarySurfacesMinMaxAndQuantiles) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.Reset();
  Histogram* h = TraceHistogram("test.summary.quantiles");
  for (int i = 1; i <= 50; ++i) h->Record(i * 1e-3);
  std::ostringstream os;
  reg.PrintSummary(os);
  const std::string out = os.str();
  // The summary table now carries the same min/max/p50/p95/p99 the
  // exposition reports.
  for (const char* col : {"Min ms", "p50 ms", "p95 ms", "p99 ms", "Max ms"}) {
    EXPECT_NE(out.find(col), std::string::npos) << col;
  }
  EXPECT_NE(out.find("test.summary.quantiles"), std::string::npos);
  reg.Reset();
}

// ------------------------------------------------------------- TraceScope --

TEST(TraceScopeTest, AggregatesIntoTimeHistogram) {
  Histogram* h = TraceHistogram("test.trace.region");
  const int64_t before = h->Count();
  {
    TraceScope scope("test.trace.region");
  }
  {
    TraceScope scope(GetTraceRegion("test.trace.region"));
  }
  EXPECT_EQ(h->Count(), before + 2);
  EXPECT_GE(h->Min(), 0.0);
}

TEST(TraceScopeTest, ConcurrentScopesAllLand) {
  SetNumThreads(4);
  Histogram* h = TraceHistogram("test.trace.concurrent");
  const TraceRegion* region = GetTraceRegion("test.trace.concurrent");
  const int64_t before = h->Count();
  constexpr int64_t kN = 1000;
  ParallelFor(0, kN, [&](int64_t) { TraceScope scope(region); });
  EXPECT_EQ(h->Count(), before + kN);
  SetNumThreads(0);
}

}  // namespace
}  // namespace edde
