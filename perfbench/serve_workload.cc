// Serving workload: the 12-member EDDE MLP ensemble of bench_serve, served
// in-process by InferenceServer with the early-exit cascade on, and driven
// over TCP through ServeClient::SendRaw/RecvRaw.
//
// Load: one sender thread feeds two connections on a fixed arrival
// schedule (open loop, Poisson arrivals as from independent users), one
// receiver thread per connection. A light phase (about a tenth of
// capacity: the coalescing deadline sets latency) is followed by a heavy
// one (about half of capacity: batches fill and worker time dominates),
// then a closed-loop capacity phase with a fixed window of requests in
// flight per connection. Latency is timed from when each request was due,
// so a late generator or a stall counts against it.
//
// The served model is fixed (trained from seed 42, like bench_serve) and so
// is the request shape: 3 rows per request, bench_serve's --rows default for
// this server configuration (64-row batches, 2 ms deadline). --seed generates
// the request stream: which test rows each request carries, and when each
// is due.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/edde.h"
#include "data/synthetic_image.h"
#include "nn/mlp.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tensor/rng.h"
#include "utils/metrics.h"
#include "utils/socket.h"
#include "utils/trace.h"

namespace edde {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kConnections = 2;
constexpr int kRowsPerRequest = 3;
// Offered rates in requests/s: 3k and 15k rows/s, about a tenth and a half
// of capacity. Capacity with 2 batch workers on a 4-vCPU x86 VM is about
// 32k rows/s of 3-row requests under light host steal.
constexpr double kLightRps = 1000.0;
constexpr double kHeavyRps = 5000.0;
constexpr int kWindow = 16;        // capacity phase: requests in flight per
                                   // connection
constexpr int kPoolSize = 1024;    // distinct pre-built requests
// Phases are cut into one-second windows and each rate, latency quantile
// and CPU cost per row is the median over the windows: a burst of host
// contention (a 4-vCPU VM's host steals CPU in bursts of seconds) then
// moves a minority of windows and not the figure, while a slowdown of the
// server itself moves every window.
constexpr double kWindowS = 1.0;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Dataset FlattenImages(const Dataset& d) {
  Tensor flat = d.features().Reshape(Shape{d.size(), d.sample_elements()});
  return Dataset(d.name() + "_flat", std::move(flat), d.labels(),
                 d.num_classes());
}

/// bench_serve's ensemble: Table-2 C10-like data flattened for MLP members,
/// 12 members with a doubled fine-tune budget so members are sharp enough
/// for early exits.
struct ServedModel {
  Dataset train;
  Dataset test;
  MlpConfig mlp = ServedMlpConfig();
  EddeOptions options;
  EnsembleModel model;
  std::vector<int> reference;  // local PredictLabels per test row
  double train_cpu_per_wall = 0.0;  // of the Train call

  ModelFactory factory() const {
    const MlpConfig config = mlp;
    return [config](uint64_t s) { return std::make_unique<Mlp>(config, s); };
  }
};

std::unique_ptr<ServedModel> TrainServedModel() {
  auto served = std::make_unique<ServedModel>();
  const TrainTestSplit data = MakeSyntheticImageData(TinyC10Config());
  served->train = FlattenImages(data.train);
  served->test = FlattenImages(data.test);
  MethodConfig mc;
  mc.num_members = kServedMembers;
  mc.epochs_per_member = 18;
  mc.batch_size = 16;
  mc.sgd.learning_rate = 0.1f;
  mc.augment = true;
  mc.seed = 42;
  served->options.gamma = 0.1f;
  served->options.beta = 0.7;
  served->options.first_member_epochs = 21;
  const auto wall = Clock::now();
  const double cpu = ProcessCpuSeconds();
  served->model = EddeMethod(mc, served->options)
                      .Train(served->train, served->factory());
  served->train_cpu_per_wall = (ProcessCpuSeconds() - cpu) /
                               SecondsBetween(wall, Clock::now());
  served->reference = served->model.PredictLabels(served->test);
  return served;
}

/// A pre-built request: its wire payload and the test rows it carries.
struct Request {
  std::string payload;
  std::vector<int64_t> rows;
};

std::vector<Request> MakeRequests(const Dataset& test, Rng* rng) {
  const int64_t dim = test.sample_elements();
  std::vector<Request> pool(kPoolSize);
  for (int i = 0; i < kPoolSize; ++i) {
    serve::PredictRequest req;
    req.id = i;
    req.rows = kRowsPerRequest;
    req.dim = dim;
    for (int64_t r = 0; r < req.rows; ++r) {
      const int64_t row = rng->UniformInt(test.size());
      pool[i].rows.push_back(row);
      const float* f = test.features().data() + row * dim;
      req.features.insert(req.features.end(), f, f + dim);
    }
    pool[i].payload = serve::BuildPredictRequest(req);
  }
  return pool;
}

/// Outcome counts of one phase.
struct PhaseStats {
  int64_t sent = 0, ok = 0, failed = 0;
  int64_t rows = 0, rows_true = 0;  // served rows; of those, labelled right
  int64_t mismatches = 0;           // served label != local PredictLabels
  std::vector<double> latency_ms;   // per request, from its due time
  std::vector<double> late_ms;      // generator lateness per request
  std::vector<double> due_s;        // open loop: due time from phase start
  std::vector<double> window_rows;  // closed loop: rows answered per window
  double wall_s = 0.0;
  std::vector<double> window_cpu_s; // closed loop: process CPU seconds
                                    // per whole window

  /// Closed loop: median over the whole windows of process CPU
  /// microseconds per served row, server and in-process client alike.
  double CpuUsPerRow() const {
    std::vector<double> per_row;
    for (size_t w = 0; w < window_cpu_s.size(); ++w) {
      if (window_rows[w] > 0) {
        per_row.push_back(window_cpu_s[w] * 1e6 / window_rows[w]);
      }
    }
    return Median(per_row);
  }

  /// Median over the phase's whole windows of each window's q-quantile
  /// latency (requests are binned by due time).
  double Latency(double q) const {
    const size_t whole = static_cast<size_t>(due_s.back() / kWindowS);
    std::vector<std::vector<double>> binned(whole);
    for (size_t i = 0; i < due_s.size(); ++i) {
      const size_t w = static_cast<size_t>(due_s[i] / kWindowS);
      if (w < whole) binned[w].push_back(latency_ms[i]);
    }
    std::vector<double> windows;
    for (const std::vector<double>& b : binned) {
      windows.push_back(Quantile(b, q));
    }
    return Median(windows);
  }

  /// Median over the phase's whole windows of rows answered per second.
  double RowsPerSecond() const {
    const size_t whole = static_cast<size_t>(wall_s / kWindowS);
    std::vector<double> w(window_rows.begin(),
                          window_rows.begin() +
                              std::min(whole, window_rows.size()));
    return Median(w) / kWindowS;
  }

  void Merge(const PhaseStats& o) {
    ok += o.ok;
    failed += o.failed;
    rows += o.rows;
    rows_true += o.rows_true;
    mismatches += o.mismatches;
  }
};

/// Checks one response frame against the request it answers; returns true
/// when the request succeeded.
bool CheckResponse(const ServedModel& served, const Request& req,
                   int64_t expected_id, const Result<std::string>& frame,
                   PhaseStats* stats) {
  static std::atomic<int> reported{0};
  auto fail = [&](const std::string& why) {
    if (reported.fetch_add(1) < 5) {
      std::fprintf(stderr, "request %lld failed: %s\n",
                   static_cast<long long>(expected_id), why.c_str());
    }
    return false;
  };
  if (!frame.ok()) return fail(frame.status().ToString());
  serve::PredictResponse resp;
  if (!serve::ParsePredictResponse(frame.ValueOrDie(), &resp).ok()) {
    return fail("unparseable response");
  }
  if (!resp.ok) return fail(resp.code + ": " + resp.error);
  if (resp.id != expected_id || resp.labels.size() != req.rows.size()) {
    return fail("response does not answer the request");
  }
  bool same = true;
  for (size_t j = 0; j < req.rows.size(); ++j) {
    const size_t row = static_cast<size_t>(req.rows[j]);
    same = same && resp.labels[j] == served.reference[row];
    stats->rows_true += resp.labels[j] == served.test.labels()[row];
  }
  stats->rows += static_cast<int64_t>(req.rows.size());
  if (!same) ++stats->mismatches;
  return same;
}

std::vector<serve::ServeClient> Connect(uint16_t port) {
  std::vector<serve::ServeClient> conns;
  for (int c = 0; c < kConnections; ++c) {
    Result<serve::ServeClient> conn =
        serve::ServeClient::Connect("127.0.0.1", port);
    EDDE_CHECK(conn.ok()) << conn.status();
    conns.push_back(std::move(conn).ValueOrDie());
    // A lost response must end the phase as a failure, not hang it.
    EDDE_CHECK(SetRecvTimeout(conns.back().fd(), 10000).ok());
  }
  return conns;
}

/// Open loop: requests arrive as a Poisson process of the given rate, drawn
/// from `arrivals`, for `seconds`; request i goes out on connection
/// i % kConnections whatever the server's state. A fixed spacing would
/// put every arrival at the same offset from the batcher's deadline, and
/// latency would then hang on which side of the deadline timer jitter
/// puts the next arrival.
PhaseStats RunOpenLoop(const ServedModel& served,
                       const std::vector<Request>& pool, uint16_t port,
                       double rate, double seconds, Rng* arrivals) {
  PhaseStats stats;
  for (double t = 0.0; t < seconds;
       t -= std::log(1.0 - arrivals->Uniform()) / rate) {
    stats.due_s.push_back(t);
  }
  const int64_t n = static_cast<int64_t>(stats.due_s.size());
  stats.sent = n;
  stats.latency_ms.assign(static_cast<size_t>(n),
                          std::numeric_limits<double>::infinity());
  stats.late_ms.assign(static_cast<size_t>(n), 0.0);
  std::vector<serve::ServeClient> conns = Connect(port);
  std::vector<PhaseStats> per_conn(kConnections);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  auto due = [&](int64_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           stats.due_s[static_cast<size_t>(i)]));
  };

  std::vector<std::thread> receivers;
  for (int c = 0; c < kConnections; ++c) {
    receivers.emplace_back([&, c] {
      for (int64_t i = c; i < n; i += kConnections) {
        const Result<std::string> frame = conns[c].RecvRaw();
        const Clock::time_point now = Clock::now();
        const Request& req = pool[static_cast<size_t>(i % kPoolSize)];
        if (!CheckResponse(served, req, i % kPoolSize, frame,
                           &per_conn[c])) {
          if (!frame.ok()) break;  // connection lost: the rest never answer
          continue;
        }
        ++per_conn[c].ok;
        stats.latency_ms[static_cast<size_t>(i)] =
            SecondsBetween(due(i), now) * 1e3;
      }
    });
  }
  for (int64_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(due(i));
    stats.late_ms[static_cast<size_t>(i)] =
        SecondsBetween(due(i), Clock::now()) * 1e3;
    // A lost send shows as a request never answered (failed = sent - ok).
    static_cast<void>(
        conns[i % kConnections].SendRaw(pool[i % kPoolSize].payload));
  }
  for (std::thread& t : receivers) t.join();
  stats.wall_s = SecondsBetween(start, Clock::now());
  for (const PhaseStats& s : per_conn) stats.Merge(s);
  // Requests neither answered nor counted failed were lost with their
  // connection.
  stats.failed = stats.sent - stats.ok;
  return stats;
}

/// Closed loop: each connection keeps kWindow requests in flight, sending
/// the next as each response arrives, until `seconds` have passed.
PhaseStats RunCapacity(const ServedModel& served,
                       const std::vector<Request>& pool, uint16_t port,
                       double seconds) {
  std::vector<serve::ServeClient> conns = Connect(port);
  std::vector<PhaseStats> per_conn(kConnections);
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<Clock::time_point> last(kConnections, start);
  const size_t windows = static_cast<size_t>(seconds / kWindowS) + 2;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      PhaseStats& s = per_conn[c];
      s.window_rows.assign(windows, 0.0);
      // Responses come back in send order on a connection; both cursors
      // walk the request pool from this connection's own offset.
      const int64_t first = c * (kPoolSize / kConnections);
      int64_t received = 0;
      // Every send counts as sent before it goes out, so a lost send is a
      // failed request (failed = sent - ok), and it ends the connection's
      // loop: nothing more can come back on it.
      bool lost = false;
      auto send = [&] {
        const std::string& payload =
            pool[(first + s.sent) % kPoolSize].payload;
        ++s.sent;
        lost = !conns[c].SendRaw(payload).ok();
      };
      for (int w = 0; w < kWindow && !lost; ++w) send();
      while (!lost && received < s.sent) {
        const Result<std::string> frame = conns[c].RecvRaw();
        const int64_t id = (first + received) % kPoolSize;
        ++received;
        const int64_t rows_before = s.rows;
        if (CheckResponse(served, pool[id], id, frame, &s)) {
          ++s.ok;
        } else if (!frame.ok()) {
          break;
        }
        last[c] = Clock::now();
        const size_t w = std::min(
            windows - 1,
            static_cast<size_t>(SecondsBetween(start, last[c]) / kWindowS));
        s.window_rows[w] += static_cast<double>(s.rows - rows_before);
        if (last[c] < stop) send();
      }
    });
  }
  // This thread reads the process CPU clock at each window boundary.
  double cpu = ProcessCpuSeconds();
  std::vector<double> window_cpu_s;
  for (size_t w = 1; w <= static_cast<size_t>(seconds / kWindowS); ++w) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(w * kWindowS)));
    const double now = ProcessCpuSeconds();
    window_cpu_s.push_back(now - cpu);
    cpu = now;
  }
  for (std::thread& t : threads) t.join();
  PhaseStats stats;
  stats.window_rows.assign(windows, 0.0);
  for (const PhaseStats& s : per_conn) {
    stats.sent += s.sent;
    stats.Merge(s);
    for (size_t w = 0; w < windows; ++w) {
      stats.window_rows[w] += s.window_rows[w];
    }
  }
  stats.failed = stats.sent - stats.ok;
  stats.wall_s =
      SecondsBetween(start, *std::max_element(last.begin(), last.end()));
  stats.window_cpu_s = std::move(window_cpu_s);
  return stats;
}

void PrintPhase(const char* name, const PhaseStats& s) {
  std::printf("%-8s sent %lld, succeeded %lld, failed %lld, %lld rows in "
              "%.2f s (%.0f rows/s)",
              name, static_cast<long long>(s.sent),
              static_cast<long long>(s.ok), static_cast<long long>(s.failed),
              static_cast<long long>(s.rows), s.wall_s,
              static_cast<double>(s.rows) / s.wall_s);
  if (!s.latency_ms.empty()) {
    std::printf("; latency over the phase p50 %.3f p90 %.3f max %.3f ms, "
                "window median p50 %.3f p90 %.3f ms; generator late p90 "
                "%.3f max %.3f ms",
                Quantile(s.latency_ms, 0.5), Quantile(s.latency_ms, 0.9),
                Quantile(s.latency_ms, 1.0), s.Latency(0.5), s.Latency(0.9),
                Quantile(s.late_ms, 0.9), Quantile(s.late_ms, 1.0));
  } else {
    std::printf("; window median %.0f rows/s; %.3f CPU us per row",
                s.RowsPerSecond(), s.CpuUsPerRow());
  }
  std::printf("\n");
}

/// Setup: train the served ensemble and start its server; repeated, and
/// every repeat must train the identical model. Returns the median CPU
/// seconds (see the training workloads for why CPU time).
double SetUp(const RunOptions& options, std::unique_ptr<ServedModel>* served,
             std::unique_ptr<serve::InferenceServer>* server,
             RunResult* result) {
  std::vector<double> times;
  std::vector<int> first_reference;
  for (int i = 0; i < 3; ++i) {
    server->reset();
    const double cpu = ProcessCpuSeconds();
    *served = TrainServedModel();
    serve::ServerConfig config;
    config.cascade = true;
    config.num_batch_workers = options.workers;
    config.max_batch_rows = 64;
    config.max_delay_ms = 2;
    // Latency under a fixed schedule is the measurement: a backlog from a
    // host stall must queue, not be shed as overload.
    config.max_queue_rows = 1 << 20;
    *server = std::make_unique<serve::InferenceServer>(
        &(*served)->model, (*served)->mlp.in_features,
        (*served)->mlp.num_classes, config);
    EDDE_CHECK((*server)->Start().ok());
    times.push_back(ProcessCpuSeconds() - cpu);
    if (i == 0) first_reference = (*served)->reference;
    result->Check((*served)->reference == first_reference,
                  "the served ensemble differs between identical trainings");
  }
  return SetupSeconds(times);
}

/// Sum and count of a histogram, for deltas around a phase.
struct HistMark {
  explicit HistMark(const Histogram* h) : sum(h->Sum()), count(h->Count()) {}
  double sum;
  int64_t count;
};

double MeanSince(const Histogram* h, const HistMark& mark) {
  const int64_t n = h->Count() - mark.count;
  return n > 0 ? (h->Sum() - mark.sum) / static_cast<double>(n) : 0.0;
}

}  // namespace

void RunServeWorkload(const RunOptions& options, RunResult* result) {
  const double steal_before = HostStealSeconds();
  std::unique_ptr<ServedModel> served;
  std::unique_ptr<serve::InferenceServer> server;
  const double setup_s = SetUp(options, &served, &server, result);
  // The seed's one stream draws the requests, then the arrival times.
  Rng stream(options.seed);
  const std::vector<Request> pool = MakeRequests(served->test, &stream);
  const uint16_t port = server->port();
  // Half the run goes to the light phase, whose median latency is the
  // gated figure; the heavy and capacity phases share the rest.
  const double light_s = options.seconds / 2.0;
  const double phase_s = options.seconds / 4.0;

  MetricsRegistry& reg = MetricsRegistry::Global();
  Histogram* queue_wait = reg.GetHistogram("time/serve/queue_wait");
  Histogram* batch_rows = reg.GetHistogram("serve.batch_rows");
  Counter* member_row_evals = reg.GetCounter("serve.member_row_evals");
  Counter* rows_served = reg.GetCounter("serve.rows");
  std::vector<Histogram*> busy;
  for (int i = 0; i < options.workers; ++i) {
    busy.push_back(
        reg.GetHistogram("serve.worker.busy_seconds." + std::to_string(i)));
  }
  auto busy_sum = [&] {
    double s = 0.0;
    for (const Histogram* h : busy) s += h->Sum();
    return s;
  };

  // The traced run first measures capacity untraced, for the overhead, then
  // trains the served ensemble once more with tracing on: the training
  // layers' figures, and the trace on/off bit-identity of the model.
  PhaseStats untraced;
  if (options.trace) {
    untraced = RunCapacity(*served, pool, port, phase_s);
    SetTracePath(options.trace_path);
    const TrainingLayers training_layers;
    const std::unique_ptr<ServedModel> retrained = TrainServedModel();
    training_layers.Report(served->train_cpu_per_wall, result);
    result->Check(retrained->reference == served->reference,
                  "the served ensemble differs with tracing on: "
                  "bit-identity broken");
  }

  const int64_t evals0 = member_row_evals->Value();
  const int64_t rows0 = rows_served->Value();
  const HistMark light_wait(queue_wait);
  PhaseStats light =
      RunOpenLoop(*served, pool, port, kLightRps, light_s, &stream);
  const double light_wait_ms = MeanSince(queue_wait, light_wait) * 1e3;
  const HistMark heavy_wait(queue_wait), heavy_rows(batch_rows);
  PhaseStats heavy =
      RunOpenLoop(*served, pool, port, kHeavyRps, phase_s, &stream);
  const double heavy_wait_ms = MeanSince(queue_wait, heavy_wait) * 1e3;
  const double heavy_batch_rows = MeanSince(batch_rows, heavy_rows);
  const double busy0 = busy_sum();
  PhaseStats capacity = RunCapacity(*served, pool, port, phase_s);
  const double busy_share =
      (busy_sum() - busy0) / (options.workers * capacity.wall_s);
  const double members_per_row =
      static_cast<double>(member_row_evals->Value() - evals0) /
      static_cast<double>(rows_served->Value() - rows0);
  server->Stop();

  PrintPhase("light", light);
  PrintPhase("heavy", heavy);
  PrintPhase("capacity", capacity);
  PhaseStats all;
  for (const PhaseStats* s : {&untraced, &light, &heavy, &capacity}) {
    all.sent += s->sent;
    all.Merge(*s);
  }
  result->attempted = all.sent;
  result->failed = all.failed;
  result->Check(all.mismatches == 0,
                std::to_string(all.mismatches) +
                    " responses carry a label that differs from the local "
                    "PredictLabels");
  result->Check(all.failed == 0, std::to_string(all.failed) +
                                     " requests failed or went unanswered");
  // Serving-layer diagnostics. They are not metrics of the result line:
  // every workload reports every listed metric, and the training workload
  // runs no server. Latency tails and capacity also swing 2-5x with the
  // host's CPU steal on a 4-vCPU VM (see README).
  std::vector<double> late = light.late_ms;
  late.insert(late.end(), heavy.late_ms.begin(), heavy.late_ms.end());
  std::printf("serving layers: queue wait %.3f ms light, %.3f ms heavy; "
              "%.2f rows per batch heavy; %.3f members per row; worker busy "
              "share %.3f in the capacity phase\n",
              light_wait_ms, heavy_wait_ms, heavy_batch_rows, members_per_row,
              busy_share);
  std::printf("serving tails: p90 %.3f ms light; p50 %.3f p90 %.3f ms heavy; "
              "capacity %.0f rows/s; generator late p90 %.3f max %.3f ms\n",
              light.Latency(0.9), heavy.Latency(0.5), heavy.Latency(0.9),
              capacity.RowsPerSecond(), Quantile(late, 0.9),
              Quantile(late, 1.0));

  if (!options.trace) {
    result->Add("setup_s", setup_s, "s");
    result->Add("cpu_us_per_item", capacity.CpuUsPerRow(), "us");
    result->Add("time_to_result_ms", light.Latency(0.5), "ms");
    result->Add("test_acc",
                static_cast<double>(all.rows_true) /
                    static_cast<double>(all.rows),
                "fraction");
    result->Add("peak_rss_mb", PeakRssMb(), "MB");
    std::printf("host steal during run: %.2f s\n",
                HostStealSeconds() - steal_before);
    return;
  }

  ProbeFixedLayers(options.seed, result);
  ProbeEnsembleLayers(served->model, served->train, served->test,
                      served->factory(), served->options, result);
  // Tracing overhead as CPU per served row, which the host's steal does not
  // move the way it moves capacity.
  result->Add("trace.overhead_share",
              untraced.rows > 0
                  ? capacity.CpuUsPerRow() / untraced.CpuUsPerRow() - 1.0
                  : 0.0,
              "fraction");
  result->Add("host.steal_s", HostStealSeconds() - steal_before, "s");
}

}  // namespace perfbench
}  // namespace edde
