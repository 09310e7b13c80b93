/// edde-serve — batched ensemble inference server (DESIGN.md §12).
///
///   edde-serve --model=ens.edde --input_dim=16 --hidden=32,32
///              --num_classes=10 --port=7433
///
/// Loads an ensemble saved by SaveEnsemble and serves predictions over the
/// length-prefixed JSON protocol (src/serve/protocol.h) on 127.0.0.1.
/// Ensemble files carry parameters + α only, not the architecture, so the
/// member architecture is pinned by flags (--arch=mlp is the only family
/// exposed today — serving-sized members; the conv families load the same
/// way once a flag spelling exists for them).
///
/// SIGINT/SIGTERM stop the server gracefully: stop accepting, drain the
/// admission queue, answer everything in flight, then flush metrics/trace
/// through the standard shutdown path and exit 128+signal.
///
/// SIGHUP (or POST /reloadz on the observability port) hot-reloads
/// --model from disk: the artifact is re-read, validated against the
/// serving geometry, and atomically installed as the next
/// generation. In-flight batches finish on the generation they started
/// on; a corrupt or mismatched artifact is rejected and the old
/// generation keeps serving (DESIGN.md §16).

#include <csignal>

#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ensemble/ensemble_io.h"
#include "nn/mlp.h"
#include "serve/server.h"
#include "utils/crash.h"
#include "utils/failpoint.h"
#include "utils/flags.h"
#include "utils/logging.h"

namespace edde {
namespace {

std::atomic<bool> g_reload_requested{false};

void HandleSighup(int) { g_reload_requested.store(true); }

constexpr int kIntMax = std::numeric_limits<int>::max();
/// Each batch worker is an OS thread; more than this is a typo, not a pool.
constexpr int kMaxWorkers = 256;

/// Parses --hidden's comma-separated widths (empty items are skipped) into
/// `hidden`, replacing its contents. False when a width is not a positive
/// decimal integer: non-numeric, trailing junk, out of int range, zero or
/// negative.
bool ParseHidden(const std::string& spec, std::vector<int>* hidden) {
  hidden->clear();
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    int width = 0;
    if (!FlagParser::ParseIntInRange(item, 1, kIntMax, &width)) return false;
    hidden->push_back(width);
  }
  return true;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.Define("model", "", "path to a SaveEnsemble file (required)");
  flags.Define("arch", "mlp", "member architecture family: mlp");
  flags.Define("input_dim", "16", "member input feature count");
  flags.Define("hidden", "32", "MLP hidden widths, comma-separated");
  flags.Define("num_classes", "10", "output classes");
  flags.Define("port", "7433", "TCP port on 127.0.0.1 (0 = ephemeral)");
  flags.Define("cascade", "true", "alpha-ordered early-exit cascade");
  flags.Define("max_batch_rows", "64", "rows that make a batch full");
  flags.Define("max_delay_ms", "2", "partial-batch deadline");
  flags.Define("max_request_rows", "1024", "per-request row cap");
  flags.Define("workers", "1",
               "batch workers (1-256) consuming the admission queue; >1 "
               "pipelines member stages across workers");
  flags.Define("http_port", "-1",
               "observability HTTP port (/metrics /healthz /statusz); "
               "-1 = off, 0 = ephemeral");
  flags.Define("drain_ms", "0",
               "lame-duck window: after SIGTERM/SIGINT, answer /healthz 503 "
               "for this long before stopping");
  flags.Define("max_request_ms", "0",
               "server-side per-request deadline cap in ms (0 = none); "
               "requests older than this are shed before execution");
  flags.Define("shed_queue_age_ms", "0",
               "shed new work once the oldest queued request is older than "
               "this (0 = off); also flips /healthz to 503");
  flags.Define("send_timeout_ms", "5000",
               "SO_SNDTIMEO on client connections (0 = block); a stalled "
               "reader gets its connection dropped instead of wedging a "
               "worker");
  DefineCommonFlags(&flags);
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    flags.PrintHelp("edde-serve");
    return 0;
  }
  ApplyCommonFlags(flags);
  failpoint::InitFromEnv();

  if (flags.GetString("model").empty()) {
    std::fprintf(stderr, "--model is required (see --help)\n");
    return 2;
  }
  if (flags.GetString("arch") != "mlp") {
    std::fprintf(stderr, "unknown --arch=%s (supported: mlp)\n",
                 flags.GetString("arch").c_str());
    return 2;
  }

  // Every integer flag must be a whole decimal number in its range; a
  // typo exits 2 instead of silently becoming 0 or wrapping.
  MlpConfig mlp;
  mlp.in_features = flags.GetInt("input_dim", 1, kIntMax);
  mlp.num_classes = flags.GetInt("num_classes", 1, kIntMax);
  serve::ServerConfig config;
  config.port = static_cast<uint16_t>(flags.GetInt("port", 0, 65535));
  config.cascade = flags.GetBool("cascade");
  config.max_batch_rows = flags.GetInt("max_batch_rows", 1, kIntMax);
  config.max_delay_ms = flags.GetInt("max_delay_ms", 0, kIntMax);
  config.max_request_rows = flags.GetInt("max_request_rows", 1, kIntMax);
  config.num_batch_workers = flags.GetInt("workers", 1, kMaxWorkers);
  config.http_port = flags.GetInt("http_port", -1, 65535);
  config.max_request_ms = flags.GetInt("max_request_ms", 0, kIntMax);
  config.shed_queue_age_ms = flags.GetInt("shed_queue_age_ms", 0, kIntMax);
  config.send_timeout_ms = flags.GetInt("send_timeout_ms", 0, kIntMax);
  const int drain_ms = flags.GetInt("drain_ms", 0, kIntMax);

  if (!ParseHidden(flags.GetString("hidden"), &mlp.hidden)) {
    std::fprintf(stderr,
                 "invalid --hidden=%s (positive integer widths, "
                 "comma-separated)\n",
                 flags.GetString("hidden").c_str());
    return 2;
  }
  const ModelFactory factory = [mlp](uint64_t seed) {
    return std::make_unique<Mlp>(mlp, seed);
  };

  Result<EnsembleModel> loaded =
      LoadEnsemble(flags.GetString("model"), factory);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n",
                 flags.GetString("model").c_str(),
                 loaded.status().ToString().c_str());
    return 2;
  }
  EnsembleModel model = std::move(loaded).ValueOrDie();

  // Hot reload re-reads --model with the same factory. The
  // closure runs on whatever thread triggers the reload (main loop for
  // SIGHUP, the HTTP thread for /reloadz); LoadEnsemble validates shapes
  // against the factory, so a swapped-out artifact with different
  // geometry fails here and the serving generation is untouched.
  const std::string model_path = flags.GetString("model");
  config.reload_source =
      [model_path, factory]() -> Result<serve::ReloadCandidate> {
    Result<EnsembleModel> reloaded = LoadEnsemble(model_path, factory);
    if (!reloaded.ok()) return reloaded.status();
    auto next = std::make_shared<EnsembleModel>(
        std::move(reloaded).ValueOrDie());
    serve::ReloadCandidate candidate;
    candidate.model = std::move(next);
    candidate.source = model_path;
    return candidate;
  };

  serve::InferenceServer server(&model, mlp.in_features, mlp.num_classes,
                                config);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start: %s\n", started.ToString().c_str());
    return 2;
  }
  // The smoke driver greps for this line to learn the (possibly ephemeral)
  // ports; keep the format stable. http_port is appended only when the
  // observability plane is on, so existing `port=` consumers are unchanged.
  if (config.http_port >= 0) {
    std::printf("edde-serve ready port=%u http_port=%u\n", server.port(),
                server.http_port());
  } else {
    std::printf("edde-serve ready port=%u\n", server.port());
  }
  std::fflush(stdout);

  InstallShutdownHandler();
  {
    struct sigaction sa = {};
    sa.sa_handler = HandleSighup;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGHUP, &sa, nullptr);
  }
  while (!ShutdownRequested()) {
    if (g_reload_requested.exchange(false)) {
      const Status reloaded = server.ReloadFromSource();
      if (!reloaded.ok()) {
        // Already logged + counted inside the server; nothing else to do —
        // the previous generation keeps serving.
        std::fprintf(stderr, "reload failed: %s\n",
                     reloaded.ToString().c_str());
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // Lame duck: readiness flips to 503 immediately; load balancers get
  // `drain_ms` to see it before the listener actually goes away.
  if (drain_ms > 0) {
    server.SetDraining(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(drain_ms));
  }
  server.Stop();  // drains the queue; every admitted request is answered
  GracefulShutdownExit();
}

}  // namespace
}  // namespace edde

int main(int argc, char** argv) { return edde::Main(argc, argv); }
