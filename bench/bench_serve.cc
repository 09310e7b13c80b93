/// bench_serve — serving latency and cascade efficiency (DESIGN.md §12).
///
/// Trains a small EDDE MLP ensemble on the Table-2 synthetic CV workload,
/// stands up an in-process InferenceServer, and drives it with concurrent
/// client threads that stream the whole test set through the wire
/// protocol — once with the α-ordered early-exit cascade ON and once OFF
/// (full mode: every member evaluates every row). Reports:
///
///   accuracy                          ensemble test accuracy (sanity)
///   serve.qps / serve.p50_ms / .p99_ms   per mode, measured client-side
///   {cascade,full}.mean_members_evaluated   rows×members run / rows
///   cascade.member_eval_reduction     1 − cascade/full (headline: ≥0.30)
///   cascade.argmax_mismatches         served labels vs local full
///                                     PredictLabels (headline: 0 — the
///                                     cascade's exact-decision guarantee)
///
/// A second phase sweeps the batch-worker pool (--workers 1/2/4, cascade
/// mode) under a queue-backed load — small full batches, many clients — so
/// queue wait measures worker serialization rather than the coalescing
/// deadline. Headlines serve.cascade.queue_wait_ms@wN / .qps@wN and the
/// w1/w4 wait ratio serve.cascade.queue_wait_speedup_w4 gate the pool in
/// CI via bench_diff; serve.sweep.bit_mismatches proves every worker count
/// served identical labels and cascade depths.
///
/// --save_model writes the trained ensemble (SaveEnsemble) and prints the
/// matching edde-serve flags; the CI serve-smoke job uses that to start
/// the standalone binary against the same model.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/edde.h"
#include "ensemble/ensemble_io.h"
#include "nn/mlp.h"
#include "serve/client.h"
#include "serve/server.h"
#include "utils/failpoint.h"
#include "utils/metrics.h"
#include "utils/table.h"
#include "utils/trace.h"

namespace edde {
namespace bench {
namespace {

/// MLP members need rank-2 input; the CV workload ships (N, C, H, W).
Dataset Flatten(const Dataset& d) {
  Tensor flat = d.features().Reshape(Shape{d.size(), d.sample_elements()});
  return Dataset(d.name() + "_flat", std::move(flat), d.labels(),
                 d.num_classes());
}

struct LoadStats {
  double wall_seconds = 0.0;
  std::vector<double> latencies;          // one per request, seconds
  std::vector<int> labels;                // served label per test row
  std::vector<int64_t> depths;            // cascade depth per test row
};

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const size_t i = static_cast<size_t>(q * static_cast<double>(v->size()));
  return (*v)[std::min(i, v->size() - 1)];
}

/// Streams every test row through the server: `num_clients` threads, each
/// with its own connection, `rows_per_request` rows per frame, contiguous
/// row ranges round-robined across clients so batches mix clients.
LoadStats DriveLoad(const Dataset& test, uint16_t port, int num_clients,
                    int64_t rows_per_request) {
  const int64_t n = test.size();
  const int64_t dim = test.sample_elements();
  LoadStats stats;
  stats.labels.assign(static_cast<size_t>(n), -1);
  stats.depths.assign(static_cast<size_t>(n), 0);
  std::vector<std::vector<double>> client_lat(
      static_cast<size_t>(num_clients));
  const float* features = test.features().data();

  Timer wall;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      Result<serve::ServeClient> conn =
          serve::ServeClient::Connect("127.0.0.1", port);
      EDDE_CHECK(conn.ok()) << conn.status();
      serve::ServeClient& client = conn.ValueOrDie();
      int64_t id = 0;
      // Client c owns request chunks c, c+num_clients, c+2*num_clients...
      for (int64_t start = static_cast<int64_t>(c) * rows_per_request;
           start < n;
           start += static_cast<int64_t>(num_clients) * rows_per_request) {
        const int64_t rows = std::min(rows_per_request, n - start);
        serve::PredictRequest req;
        req.id = id++;
        req.rows = rows;
        req.dim = dim;
        req.features.assign(features + start * dim,
                            features + (start + rows) * dim);
        Timer t;
        Result<serve::PredictResponse> resp = client.Predict(req);
        client_lat[static_cast<size_t>(c)].push_back(t.Seconds());
        EDDE_CHECK(resp.ok()) << resp.status();
        const serve::PredictResponse& r = resp.ValueOrDie();
        EDDE_CHECK(r.ok) << r.error;
        EDDE_CHECK_EQ(static_cast<int64_t>(r.labels.size()), rows);
        for (int64_t i = 0; i < rows; ++i) {
          stats.labels[static_cast<size_t>(start + i)] = r.labels[i];
          stats.depths[static_cast<size_t>(start + i)] = r.depth[i];
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  stats.wall_seconds = wall.Seconds();
  for (auto& lat : client_lat) {
    stats.latencies.insert(stats.latencies.end(), lat.begin(), lat.end());
  }
  return stats;
}

struct OverloadStats {
  double wall_seconds = 0.0;
  int64_t ok = 0;    // answered in time, label delivered
  int64_t shed = 0;  // refused: deadline_exceeded or unavailable
};

/// Open-ish-loop overload driver: every client fires a fixed number of
/// single-row attempts with a client deadline and NO retries, so shed
/// responses count against shed_rate instead of being hidden by resends.
/// A shed answer returns in microseconds; the 1 ms pause after one keeps
/// the resubmit from degenerating into a busy spin while still offering
/// far more load than the starved server can absorb. Anything other than
/// "served" or "shed" (transport error, unexpected code) aborts the
/// bench — overload must degrade answers, never connections.
OverloadStats DriveOverload(const Dataset& test, uint16_t port,
                            int num_clients, int attempts_per_client,
                            int64_t deadline_ms) {
  const int64_t n = test.size();
  const int64_t dim = test.sample_elements();
  const float* features = test.features().data();
  std::vector<int64_t> ok_counts(static_cast<size_t>(num_clients), 0);
  std::vector<int64_t> shed_counts(static_cast<size_t>(num_clients), 0);
  Timer wall;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      Result<serve::ServeClient> conn =
          serve::ServeClient::Connect("127.0.0.1", port);
      EDDE_CHECK(conn.ok()) << conn.status();
      serve::ServeClient& client = conn.ValueOrDie();
      for (int a = 0; a < attempts_per_client; ++a) {
        const int64_t row =
            (static_cast<int64_t>(c) * attempts_per_client + a) % n;
        serve::PredictRequest req;
        req.id = a;
        req.rows = 1;
        req.dim = dim;
        req.deadline_ms = deadline_ms;
        req.features.assign(features + row * dim,
                            features + (row + 1) * dim);
        Result<serve::PredictResponse> resp = client.Predict(req);
        EDDE_CHECK(resp.ok()) << resp.status();
        const serve::PredictResponse& r = resp.ValueOrDie();
        if (r.ok) {
          EDDE_CHECK_EQ(static_cast<int64_t>(r.labels.size()), 1);
          ++ok_counts[static_cast<size_t>(c)];
        } else {
          EDDE_CHECK(r.code == "unavailable" ||
                     r.code == "deadline_exceeded")
              << r.code << ": " << r.error;
          ++shed_counts[static_cast<size_t>(c)];
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  OverloadStats stats;
  stats.wall_seconds = wall.Seconds();
  for (int c = 0; c < num_clients; ++c) {
    stats.ok += ok_counts[static_cast<size_t>(c)];
    stats.shed += shed_counts[static_cast<size_t>(c)];
  }
  return stats;
}

int Run(int argc, char** argv) {
  FlagParser flags;
  flags.Define("clients", "4", "concurrent client connections");
  flags.Define("members", "12",
               "ensemble size; an exactly-decided row still needs consumed "
               "alpha mass > remaining mass, so deeper ensembles give the "
               "cascade more early-exit headroom than Table 2's default 4");
  flags.Define("rows", "3", "rows per request (odd on purpose — exercises "
                            "batch coalescing across requests)");
  flags.Define("max_batch_rows", "64", "server batch-full threshold");
  flags.Define("max_delay_ms", "2", "server partial-batch deadline");
  flags.Define("sweep_clients", "16",
               "clients for the worker scaling sweep — enough to keep "
               "several full batches queued");
  flags.Define("sweep_rows", "4", "rows per request in the sweep");
  flags.Define("sweep_batch_rows", "8",
               "sweep batch-full threshold; small so batches ship full and "
               "queue wait reflects worker serialization, not the deadline");
  flags.Define("sweep_delay_ms", "1", "sweep partial-batch deadline");
  flags.Define("overload_clients", "24",
               "clients for the overload region — far beyond the starved "
               "server's capacity so shedding must engage");
  flags.Define("overload_requests", "120",
               "attempts per client in the overload region");
  flags.Define("overload_batch_delay_ms", "5",
               "serve.batch delay failpoint armed during the overload "
               "region: a fixed per-batch cost floor that makes capacity "
               "deterministic across hosts");
  flags.Define("overload_deadline_ms", "30",
               "client deadline stamped on overload requests");
  flags.Define("save_model", "", "also SaveEnsemble here (CI smoke input)");
  if (!InitExperiment(&flags, argc, argv)) return 0;
  const Scale scale = ParseScale(flags.GetString("scale"));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  PrintBanner("serve: batched inference with the alpha-ordered cascade",
              "the early-exit cascade cuts members evaluated per request "
              "by >=30% with zero argmax changes",
              scale, seed);

  const CvWorkload raw = MakeC10Like(scale, seed);
  const Dataset train = Flatten(raw.data.train);
  const Dataset test = Flatten(raw.data.test);

  MlpConfig mlp;
  mlp.in_features = static_cast<int>(train.sample_elements());
  mlp.hidden = {scale == Scale::kTiny ? 48 : 96};
  mlp.num_classes = raw.num_classes;
  const ModelFactory factory = [mlp](uint64_t s) {
    return std::make_unique<Mlp>(mlp, s);
  };

  Budget budget = MakeCvBudget(scale, seed);
  const int members = flags.GetInt("members");
  EDDE_CHECK_GT(members, 0);
  // Serving wants deep ensembles of *sharp* members: a row early-exits when
  // its accumulated margin beats the outstanding α mass, and soft, barely
  // fine-tuned members produce margins too small to clear it. So extend the
  // member count beyond Table 2's four and double the per-member fine-tune
  // budget; the Table-2 training recipe is otherwise unchanged.
  budget.method.num_members = members;
  budget.edde_rest_epochs *= 2;
  budget.total_epochs = budget.edde_first_epochs +
                        (members - 1) * budget.edde_rest_epochs;
  auto method = MakeEdde(budget, Arch::kResNet,
                         PaperEddeOptions(Arch::kResNet, budget));
  Timer train_timer;
  EnsembleModel model = method->Train(train, factory);
  std::printf("trained %lld-member EDDE MLP ensemble in %.1fs\n",
              static_cast<long long>(model.size()), train_timer.Seconds());

  const double accuracy = model.EvaluateAccuracy(test);
  RecordHeadline("accuracy", accuracy);

  if (!flags.GetString("save_model").empty()) {
    const Status saved =
        SaveEnsemble(model, flags.GetString("save_model"));
    EDDE_CHECK(saved.ok()) << saved;
    // The smoke job greps this to start edde-serve with matching flags.
    std::printf("model-flags: --input_dim=%d --hidden=%d --num_classes=%d\n",
                mlp.in_features, mlp.hidden[0], mlp.num_classes);
  }

  // Local full-ensemble reference labels — the bit-exactness yardstick.
  const std::vector<int> reference = model.PredictLabels(test);

  Counter* const member_row_evals =
      MetricsRegistry::Global().GetCounter("serve.member_row_evals");
  Counter* const rows_counter =
      MetricsRegistry::Global().GetCounter("serve.rows");
  // Admission-to-batch wait, recorded by the server per request
  // (TraceCompleteSpan on serve/queue_wait). Per-mode means come from
  // sum/count deltas around each load run.
  Histogram* const queue_wait =
      MetricsRegistry::Global().GetHistogram("time/serve/queue_wait");

  const int64_t T = model.size();
  const int num_clients = flags.GetInt("clients");
  const int64_t rows_per_request = flags.GetInt("rows");

  struct ModeResult {
    std::string name;
    LoadStats stats;
    double mean_members = 0.0;
    double mean_queue_wait_ms = 0.0;
  };
  std::vector<ModeResult> modes;
  for (const bool cascade : {true, false}) {
    serve::ServerConfig config;
    config.cascade = cascade;
    config.max_batch_rows = flags.GetInt("max_batch_rows");
    config.max_delay_ms = flags.GetInt("max_delay_ms");
    serve::InferenceServer server(&model, mlp.in_features, mlp.num_classes,
                                  config);
    const Status started = server.Start();
    EDDE_CHECK(started.ok()) << started;

    const int64_t evals_before = member_row_evals->Value();
    const int64_t rows_before = rows_counter->Value();
    const int64_t waits_before = queue_wait->Count();
    const double wait_sum_before = queue_wait->Sum();
    LoadStats stats =
        DriveLoad(test, server.port(), num_clients, rows_per_request);
    server.Stop();

    ModeResult mode;
    mode.name = cascade ? "cascade" : "full";
    const int64_t rows_served = rows_counter->Value() - rows_before;
    EDDE_CHECK_EQ(rows_served, test.size());
    mode.mean_members =
        static_cast<double>(member_row_evals->Value() - evals_before) /
        static_cast<double>(rows_served);
    const int64_t waits = queue_wait->Count() - waits_before;
    if (waits > 0) {
      mode.mean_queue_wait_ms = (queue_wait->Sum() - wait_sum_before) /
                                static_cast<double>(waits) * 1e3;
    }
    mode.stats = std::move(stats);
    modes.push_back(std::move(mode));
  }

  TablePrinter table(
      {"Mode", "QPS", "p50 ms", "p99 ms", "queue-wait ms", "members/row"});
  for (ModeResult& mode : modes) {
    const double requests =
        static_cast<double>(mode.stats.latencies.size());
    const double qps = requests / mode.stats.wall_seconds;
    const double p50 = Quantile(&mode.stats.latencies, 0.50) * 1e3;
    const double p99 = Quantile(&mode.stats.latencies, 0.99) * 1e3;
    RecordHeadline("serve." + mode.name + ".qps", qps);
    RecordHeadline("serve." + mode.name + ".p50_ms", p50);
    RecordHeadline("serve." + mode.name + ".p99_ms", p99);
    RecordHeadline("serve." + mode.name + ".queue_wait_ms",
                   mode.mean_queue_wait_ms);
    RecordHeadline(mode.name + ".mean_members_evaluated",
                   mode.mean_members);
    table.AddRow({mode.name, FormatFloat(qps, 1), FormatFloat(p50, 3),
                  FormatFloat(p99, 3),
                  FormatFloat(mode.mean_queue_wait_ms, 3),
                  FormatFloat(mode.mean_members, 2)});
  }
  table.Print(std::cout);

  // Exactness: served labels (both modes) must equal the local
  // full-ensemble argmax row for row.
  int64_t mismatches = 0;
  for (const ModeResult& mode : modes) {
    for (size_t i = 0; i < reference.size(); ++i) {
      if (mode.stats.labels[i] != reference[i]) ++mismatches;
    }
  }
  RecordHeadline("cascade.argmax_mismatches",
                 static_cast<double>(mismatches));

  double depth_sum = 0.0;
  for (int64_t d : modes[0].stats.depths) {
    depth_sum += static_cast<double>(d);
  }
  const double mean_depth =
      depth_sum / static_cast<double>(modes[0].stats.depths.size());
  RecordHeadline("cascade.mean_depth", mean_depth);

  const double reduction =
      1.0 - modes[0].mean_members / modes[1].mean_members;
  RecordHeadline("cascade.member_eval_reduction", reduction);

  // ---- batch-worker scaling sweep (cascade mode) ----
  // The two-mode phase is deadline-dominated: a handful of clients never
  // fills a 64-row batch, so queue wait ≈ max_delay_ms at any worker
  // count. The sweep flips the regime — many clients, small batches, a
  // 1 ms deadline — so several full batches are always outstanding and
  // queue wait (arrival → first worker touch) measures how fast the pool
  // drains the queue. That is Little's law, not core count: even a
  // single-core box shows the w1→w4 drop because four workers pop batches
  // four times sooner, which is exactly what a latency SLO sees.
  struct SweepResult {
    int workers = 1;
    LoadStats stats;
    double queue_wait_ms = 0.0;
    double qps = 0.0;
  };
  std::vector<SweepResult> sweep;
  const int sweep_clients = flags.GetInt("sweep_clients");
  const int64_t sweep_rows = flags.GetInt("sweep_rows");
  for (const int w : {1, 2, 4}) {
    serve::ServerConfig config;
    config.cascade = true;
    config.max_batch_rows = flags.GetInt("sweep_batch_rows");
    config.max_delay_ms = flags.GetInt("sweep_delay_ms");
    config.num_batch_workers = w;
    serve::InferenceServer server(&model, mlp.in_features, mlp.num_classes,
                                  config);
    const Status started = server.Start();
    EDDE_CHECK(started.ok()) << started;
    const int64_t waits_before = queue_wait->Count();
    const double wait_sum_before = queue_wait->Sum();
    SweepResult r;
    r.workers = w;
    r.stats = DriveLoad(test, server.port(), sweep_clients, sweep_rows);
    server.Stop();
    const int64_t waits = queue_wait->Count() - waits_before;
    if (waits > 0) {
      r.queue_wait_ms = (queue_wait->Sum() - wait_sum_before) /
                        static_cast<double>(waits) * 1e3;
    }
    r.qps = static_cast<double>(r.stats.latencies.size()) /
            r.stats.wall_seconds;
    sweep.push_back(std::move(r));
  }

  std::printf("\n-- worker scaling (cascade, %d clients, %lld-row "
              "requests, batch=%lld) --\n",
              sweep_clients, static_cast<long long>(sweep_rows),
              static_cast<long long>(flags.GetInt("sweep_batch_rows")));
  TablePrinter sweep_table(
      {"Workers", "QPS", "p50 ms", "p99 ms", "queue-wait ms"});
  for (SweepResult& r : sweep) {
    const std::string at = "@w" + std::to_string(r.workers);
    RecordHeadline("serve.cascade.qps" + at, r.qps);
    RecordHeadline("serve.cascade.queue_wait_ms" + at, r.queue_wait_ms);
    sweep_table.AddRow({std::to_string(r.workers), FormatFloat(r.qps, 1),
                        FormatFloat(Quantile(&r.stats.latencies, 0.50) * 1e3,
                                    3),
                        FormatFloat(Quantile(&r.stats.latencies, 0.99) * 1e3,
                                    3),
                        FormatFloat(r.queue_wait_ms, 3)});
  }
  sweep_table.Print(std::cout);

  // Headline is "times faster", so a pool regression reads as a drop and
  // bench_diff flags it against the committed baseline.
  const double wait_speedup =
      sweep.back().queue_wait_ms > 0.0
          ? sweep.front().queue_wait_ms / sweep.back().queue_wait_ms
          : 0.0;
  RecordHeadline("serve.cascade.queue_wait_speedup_w4", wait_speedup);

  // Bit-identity across worker counts: same labels AND same cascade exit
  // depths as the single-worker run, row for row. Depth equality is the
  // stronger claim — it shows the pipelined pool ran the identical
  // per-row decision sequence, not just reached the same argmax.
  int64_t sweep_mismatches = 0;
  for (const SweepResult& r : sweep) {
    for (size_t i = 0; i < reference.size(); ++i) {
      if (r.stats.labels[i] != reference[i]) ++sweep_mismatches;
      if (r.stats.depths[i] != sweep.front().stats.depths[i]) {
        ++sweep_mismatches;
      }
    }
  }
  RecordHeadline("serve.sweep.bit_mismatches",
                 static_cast<double>(sweep_mismatches));
  std::printf("queue-wait w1/w4 speedup %.2fx | cross-worker-count "
              "mismatches %lld\n",
              wait_speedup, static_cast<long long>(sweep_mismatches));
  if (wait_speedup < 2.0) {
    std::printf("WARNING: w4 queue-wait speedup below the 2x target\n");
  }

  // ---- overload region: deadlines + queue-age load shedding ----
  // (DESIGN.md §16.) A deliberately capacity-starved server — one batch
  // worker, 4-row batches, and a serve.batch delay failpoint so every
  // batch costs a fixed floor regardless of host speed — is driven first
  // under capacity and then far past it. Requests carry a client deadline
  // and are never retried; what the server cannot start in time it sheds
  // (queue-age trip -> unavailable, expired deadline ->
  // deadline_exceeded) instead of letting every queued request's latency
  // collapse together. Graceful degradation means goodput at the
  // saturated point holds near the capacity the under-capacity point
  // reveals, with shed_rate absorbing the excess. Headlines gate both in
  // CI: serve.goodput_qps regresses on drops, serve.shed_rate on rises.
  const int overload_clients = flags.GetInt("overload_clients");
  const int overload_requests = flags.GetInt("overload_requests");
  const int64_t overload_deadline_ms = flags.GetInt("overload_deadline_ms");
  double goodput_qps = 0.0;
  double shed_rate = 0.0;
  {
    serve::ServerConfig config;
    config.cascade = true;
    config.max_batch_rows = 4;
    config.max_delay_ms = 1;
    config.num_batch_workers = 1;
    config.max_request_ms = 2 * overload_deadline_ms;  // server backstop
    config.shed_queue_age_ms = 15;
    serve::InferenceServer server(&model, mlp.in_features, mlp.num_classes,
                                  config);
    const Status started = server.Start();
    EDDE_CHECK(started.ok()) << started;
    const Status armed = failpoint::SetSpec(
        "serve.batch=delay:" +
        std::to_string(flags.GetInt("overload_batch_delay_ms")));
    EDDE_CHECK(armed.ok()) << armed;

    TablePrinter overload_table(
        {"Clients", "Offered qps", "Goodput qps", "Shed rate"});
    for (const int load : {2, overload_clients}) {
      const OverloadStats o = DriveOverload(
          test, server.port(), load, overload_requests,
          overload_deadline_ms);
      const int64_t attempts = o.ok + o.shed;
      const double offered =
          static_cast<double>(attempts) / o.wall_seconds;
      const double goodput = static_cast<double>(o.ok) / o.wall_seconds;
      const double rate =
          static_cast<double>(o.shed) / static_cast<double>(attempts);
      overload_table.AddRow({std::to_string(load), FormatFloat(offered, 1),
                             FormatFloat(goodput, 1),
                             FormatFloat(rate, 3)});
      // Headlines come from the saturated point — the regime the
      // resilience layer exists for.
      goodput_qps = goodput;
      shed_rate = rate;
    }
    failpoint::Clear();
    server.Stop();
    std::printf("\n-- overload region (1 worker, batch=4, +%lldms/batch, "
                "deadline %lldms, shed line 15ms) --\n",
                static_cast<long long>(
                    flags.GetInt("overload_batch_delay_ms")),
                static_cast<long long>(overload_deadline_ms));
    overload_table.Print(std::cout);
  }
  RecordHeadline("serve.goodput_qps", goodput_qps);
  RecordHeadline("serve.shed_rate", shed_rate);
  std::printf("overload goodput %.1f qps at shed rate %.3f\n", goodput_qps,
              shed_rate);

  std::printf(
      "\naccuracy %.4f | ensemble size %lld | mean cascade depth %.2f\n"
      "members evaluated per row: cascade %.2f vs full %.2f "
      "(reduction %.1f%%)\nargmax mismatches vs full predict: %lld\n",
      accuracy, static_cast<long long>(T), mean_depth,
      modes[0].mean_members, modes[1].mean_members, reduction * 100.0,
      static_cast<long long>(mismatches));
  if (reduction < 0.30) {
    std::printf("WARNING: cascade reduction below the 30%% target\n");
  }

  FinishExperiment("serve");
  return (mismatches == 0 && sweep_mismatches == 0) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace edde

int main(int argc, char** argv) { return edde::bench::Run(argc, argv); }
