/// edde-serve-client — in-tree load driver for edde-serve.
///
///   edde-serve-client --port=7433 --dim=16 --requests=200 --rows=4
///   edde-serve-client --port=7433 --pool=8 --requests=2000 --dump=out.txt
///
/// Sends `requests` predict requests of `rows` random rows each and
/// validates every response (ok, echoed id, label count, label range,
/// depth bounds). Exit 0 when every response checked out — the CI
/// serve-smoke job's pass/fail signal.
///
/// --pool=N drives the load over N persistent connections (one thread
/// each, sockets reused across requests) so measurements see server
/// throughput rather than connect/teardown overhead. Payloads are
/// generated up front from --seed alone — the same flags produce the same
/// request stream at any pool size or against any worker count, which is
/// what makes --dump a cross-configuration bit-identity probe: it writes
/// one canonical line per request (id, labels, cascade depths, probs when
/// --probs) in request order, so two dumps from servers that predict
/// identically compare byte-equal with cmp(1).

#include <algorithm>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "utils/flags.h"

namespace edde {
namespace {

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.Define("host", "127.0.0.1", "server host");
  flags.Define("port", "7433", "server port");
  flags.Define("dim", "16", "feature dimension (must match the server)");
  flags.Define("num_classes", "10", "expected label range [0, num_classes)");
  flags.Define("requests", "200", "requests to send");
  flags.Define("rows", "4", "rows per request");
  flags.Define("seed", "1", "feature RNG seed");
  flags.Define("pool", "1",
               "persistent connections driving the load concurrently");
  flags.Define("probs", "false", "request probability payloads too");
  flags.Define("dump", "",
               "write canonical response lines here (request order, no "
               "trace ids) for cross-run bit-identity checks");
  flags.Define("deadline_ms", "0",
               "per-request client deadline stamped into each request "
               "(0 = none)");
  flags.Define("retries", "0",
               "retry attempts after the first on transport failures and "
               "retryable server codes (unavailable/failed_precondition)");
  flags.Define("backoff_ms", "5", "base retry backoff (exponential, capped)");
  flags.Define("retry_budget", "1024",
               "lifetime retry allowance per connection thread");
  flags.Define("recv_timeout_ms", "0",
               "SO_RCVTIMEO on client sockets (0 = block forever)");
  flags.Define("allow_shed", "false",
               "treat deadline_exceeded/unavailable responses as sheds "
               "(counted, not failures) instead of hard errors");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    flags.PrintHelp("edde-serve-client");
    return 0;
  }

  // A malformed or out-of-range integer exits 2 (FlagParser::GetInt).
  constexpr int kIntMax = std::numeric_limits<int>::max();
  const int64_t dim = flags.GetInt("dim", 1, kIntMax);
  const int64_t rows = flags.GetInt("rows", 1, kIntMax);
  const int num_classes = flags.GetInt("num_classes", 1, kIntMax);
  const int num_requests = flags.GetInt("requests", 0, kIntMax);
  // Each connection is a thread.
  const int pool = flags.GetInt("pool", 1, 256);
  const bool want_probs = flags.GetBool("probs");
  const std::string dump_path = flags.GetString("dump");
  const std::string host = flags.GetString("host");
  const uint16_t port = static_cast<uint16_t>(flags.GetInt("port", 1, 65535));
  const bool allow_shed = flags.GetBool("allow_shed");

  serve::RetryPolicy policy;
  policy.max_attempts = 1 + flags.GetInt("retries", 0, kIntMax - 1);
  policy.retry_budget = flags.GetInt("retry_budget", 0, kIntMax);
  policy.base_backoff_ms = flags.GetInt("backoff_ms", 0, kIntMax);
  policy.deadline_ms = flags.GetInt("deadline_ms", 0, kIntMax);
  policy.recv_timeout_ms = flags.GetInt("recv_timeout_ms", 0, kIntMax);

  // Payloads come from one sequential RNG pass, independent of how many
  // connections later carry them — request i is identical across runs.
  std::mt19937 rng(static_cast<uint32_t>(flags.GetInt("seed")));
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  std::vector<serve::PredictRequest> requests(
      static_cast<size_t>(num_requests));
  for (int i = 0; i < num_requests; ++i) {
    serve::PredictRequest& req = requests[static_cast<size_t>(i)];
    req.id = i;
    req.rows = rows;
    req.dim = dim;
    req.want_probs = want_probs;
    req.features.resize(static_cast<size_t>(rows * dim));
    for (float& f : req.features) f = dist(rng);
  }

  std::vector<std::string> lines(static_cast<size_t>(num_requests));
  std::vector<double> depth_sums(static_cast<size_t>(pool), 0.0);
  std::vector<int> failures(static_cast<size_t>(pool), 0);
  std::vector<int64_t> sheds(static_cast<size_t>(pool), 0);
  std::vector<int64_t> retries(static_cast<size_t>(pool), 0);

  auto drive = [&](int worker) {
    serve::RetryPolicy worker_policy = policy;
    // Distinct jitter stream per connection so backed-off workers do not
    // re-stampede in lockstep.
    worker_policy.seed = policy.seed + static_cast<uint64_t>(worker);
    serve::RetryingServeClient client(host, port, worker_policy);
    for (int i = worker; i < num_requests; i += pool) {
      const serve::PredictRequest& req = requests[static_cast<size_t>(i)];
      Result<serve::PredictResponse> resp = client.Predict(req);
      if (!resp.ok()) {
        std::fprintf(stderr, "request %d: %s\n", i,
                     resp.status().ToString().c_str());
        failures[static_cast<size_t>(worker)] = 1;
        return;
      }
      const serve::PredictResponse& r = resp.ValueOrDie();
      if (!r.ok) {
        if (allow_shed && (r.code == "deadline_exceeded" ||
                           r.code == "unavailable")) {
          ++sheds[static_cast<size_t>(worker)];
          lines[static_cast<size_t>(i)] =
              "id=" + std::to_string(i) + " shed=" + r.code;
          continue;
        }
        std::fprintf(stderr, "request %d: server error [%s]: %s\n", i,
                     r.code.c_str(), r.error.c_str());
        failures[static_cast<size_t>(worker)] = 1;
        return;
      }
      if (static_cast<int64_t>(r.labels.size()) != rows ||
          r.depth.size() != r.labels.size() ||
          (want_probs &&
           static_cast<int64_t>(r.probs.size()) != rows * num_classes)) {
        std::fprintf(stderr, "request %d: bad response geometry\n", i);
        failures[static_cast<size_t>(worker)] = 1;
        return;
      }
      std::string line = "id=" + std::to_string(i) + " labels=";
      for (size_t j = 0; j < r.labels.size(); ++j) {
        if (r.labels[j] < 0 || r.labels[j] >= num_classes) {
          std::fprintf(stderr, "request %d: label %d out of range\n", i,
                       r.labels[j]);
          failures[static_cast<size_t>(worker)] = 1;
          return;
        }
        if (r.depth[j] < 1) {
          std::fprintf(stderr, "request %d: cascade depth %lld < 1\n", i,
                       static_cast<long long>(r.depth[j]));
          failures[static_cast<size_t>(worker)] = 1;
          return;
        }
        depth_sums[static_cast<size_t>(worker)] +=
            static_cast<double>(r.depth[j]);
        if (j > 0) line.push_back(',');
        line += std::to_string(r.labels[j]);
      }
      line += " depth=";
      for (size_t j = 0; j < r.depth.size(); ++j) {
        if (j > 0) line.push_back(',');
        line += std::to_string(r.depth[j]);
      }
      if (want_probs) {
        line += " probs=";
        char buf[32];
        for (size_t j = 0; j < r.probs.size(); ++j) {
          // %.9g round-trips float32 exactly, so equal bits ⇒ equal text.
          std::snprintf(buf, sizeof(buf), "%s%.9g", j > 0 ? "," : "",
                        static_cast<double>(r.probs[j]));
          line += buf;
        }
      }
      lines[static_cast<size_t>(i)] = std::move(line);
    }
    retries[static_cast<size_t>(worker)] = client.retries_used();
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(pool));
  for (int w = 0; w < pool; ++w) threads.emplace_back(drive, w);
  for (std::thread& t : threads) t.join();
  for (const int failed : failures) {
    if (failed) return 1;
  }

  if (!dump_path.empty()) {
    std::FILE* f = std::fopen(dump_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", dump_path.c_str());
      return 1;
    }
    for (const std::string& line : lines) {
      std::fprintf(f, "%s\n", line.c_str());
    }
    std::fclose(f);
  }

  double depth_sum = 0.0;
  int64_t shed_total = 0;
  int64_t retry_total = 0;
  for (const double s : depth_sums) depth_sum += s;
  for (const int64_t s : sheds) shed_total += s;
  for (const int64_t r : retries) retry_total += r;
  const int64_t answered =
      (static_cast<int64_t>(num_requests) - shed_total) * rows;
  std::printf("OK: %d requests, %lld rows, %d conns, mean cascade depth "
              "%.2f, %lld shed, %lld retries\n",
              num_requests, static_cast<long long>(answered), pool,
              answered > 0 ? depth_sum / static_cast<double>(answered) : 0.0,
              static_cast<long long>(shed_total),
              static_cast<long long>(retry_total));
  return 0;
}

}  // namespace
}  // namespace edde

int main(int argc, char** argv) { return edde::Main(argc, argv); }
