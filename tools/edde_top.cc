/// edde-top — live terminal monitor for a running edde-serve
/// (DESIGN.md §14).
///
///   edde-top --port=9100             # poll /statusz once a second
///   edde-top --port=9100 --once      # one snapshot, no screen clearing
///
/// Polls GET /statusz on the server's observability port and renders a
/// refreshing view: throughput (rows/s and requests/s from counter deltas
/// between polls), end-to-end latency quantiles, queue depth against its
/// backpressure cap, cascade depth, and a per-member table showing each
/// member's α and its share of row evaluations — the live picture of how
/// much work the early-exit cascade is saving and which members earn their
/// keep.
///
/// Rates need two samples, so the first frame shows "-" for them. Exits
/// with status 1 when the server cannot be reached (--once) or disappears
/// mid-watch.

#include <cstdio>
#include <limits>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "serve/http.h"
#include "utils/flags.h"
#include "utils/json.h"
#include "utils/table.h"

namespace edde {
namespace {

struct Sample {
  bool valid = false;
  double at_seconds = 0.0;  // server uptime clock — monotonic, poll-aligned
  int64_t rows = 0;
  int64_t requests = 0;
  int64_t member_row_evals = 0;
};

std::string FormatRate(const Sample& prev, int64_t delta) {
  if (!prev.valid) return "-";
  return FormatFloat(static_cast<double>(delta), 1);
}

std::string Ms(double seconds) { return FormatFloat(seconds * 1e3, 3); }

int64_t CounterOr(const JsonValue& counters, const std::string& name,
                  int64_t fallback) {
  return static_cast<int64_t>(
      counters.GetNumberOr(name, static_cast<double>(fallback)));
}

int WatchLoop(const std::string& host, uint16_t port, int interval_ms,
              bool once, int max_frames) {
  Sample prev;
  int frames = 0;
  for (;;) {
    Result<serve::HttpResponse> got =
        serve::HttpGet(host, port, "/statusz");
    if (!got.ok() || got.ValueOrDie().status != 200) {
      std::fprintf(stderr, "edde-top: cannot fetch /statusz from %s:%u: %s\n",
                   host.c_str(), port,
                   got.ok() ? ("HTTP " + std::to_string(
                                             got.ValueOrDie().status))
                                  .c_str()
                            : got.status().ToString().c_str());
      return 1;
    }
    JsonValue root;
    const Status parsed = JsonValue::Parse(got.ValueOrDie().body, &root);
    if (!parsed.ok() || !root.is_object()) {
      std::fprintf(stderr, "edde-top: /statusz is not valid JSON: %s\n",
                   parsed.ToString().c_str());
      return 1;
    }
    const JsonValue* server = root.Get("server");
    const JsonValue* counters = root.Get("counters");
    const JsonValue* histograms = root.Get("histograms");
    if (server == nullptr || counters == nullptr || histograms == nullptr) {
      std::fprintf(stderr, "edde-top: /statusz missing expected sections\n");
      return 1;
    }

    Sample cur;
    cur.valid = true;
    cur.at_seconds = server->GetNumberOr("uptime_seconds", 0.0);
    cur.rows = CounterOr(*counters, "serve.rows", 0);
    cur.requests = CounterOr(*counters, "serve.requests", 0);
    cur.member_row_evals = CounterOr(*counters, "serve.member_row_evals", 0);
    const double dt =
        prev.valid ? (cur.at_seconds - prev.at_seconds) : 0.0;

    if (!once) std::fputs("\x1b[H\x1b[2J", stdout);  // home + clear
    std::printf(
        "edde-top — %s:%u  up %.1fs  gen=%lld  members=%lld  cascade=%s  "
        "workers=%lld  %s\n",
        host.c_str(), port, cur.at_seconds,
        static_cast<long long>(server->GetNumberOr("generation", 1)),
        static_cast<long long>(server->GetNumberOr("members", 0)),
        server->Get("cascade") != nullptr && server->Get("cascade")->AsBool()
            ? "on"
            : "off",
        static_cast<long long>(server->GetNumberOr("num_batch_workers", 1)),
        server->Get("ready") != nullptr && server->Get("ready")->AsBool()
            ? "READY"
            : "NOT READY");
    std::printf(
        "model: %s  reloads=%lld  queue age %lldms  shed: deadline=%lld "
        "queue=%lld\n\n",
        server->GetStringOr("model_source", "?").c_str(),
        static_cast<long long>(server->GetNumberOr("reloads", 0)),
        static_cast<long long>(server->GetNumberOr("queue_age_ms", 0)),
        static_cast<long long>(CounterOr(*counters, "serve.deadline_shed", 0)),
        static_cast<long long>(
            CounterOr(*counters, "serve.queue_age_shed", 0)));

    {
      const int64_t d_rows = cur.rows - prev.rows;
      const int64_t d_reqs = cur.requests - prev.requests;
      const int64_t d_evals = cur.member_row_evals - prev.member_row_evals;
      const JsonValue* lat =
          histograms->Get("serve.request_latency_seconds");
      const JsonValue* wait = histograms->Get("time/serve/queue_wait");
      TablePrinter t({"Rows/s", "Req/s", "Members/row", "p50 ms", "p99 ms",
                      "Queue wait p99 ms", "Queue rows", "Cap"});
      t.AddRow({
          dt > 0 ? FormatFloat(d_rows / dt, 1) : FormatRate(prev, d_rows),
          dt > 0 ? FormatFloat(d_reqs / dt, 1) : FormatRate(prev, d_reqs),
          d_rows > 0 ? FormatFloat(static_cast<double>(d_evals) / d_rows, 2)
                     : "-",
          lat != nullptr ? Ms(lat->GetNumberOr("p50", 0.0)) : "-",
          lat != nullptr ? Ms(lat->GetNumberOr("p99", 0.0)) : "-",
          wait != nullptr ? Ms(wait->GetNumberOr("p99", 0.0)) : "-",
          std::to_string(static_cast<long long>(
              server->GetNumberOr("queue_rows", 0))),
          std::to_string(static_cast<long long>(
              server->GetNumberOr("max_queue_rows", 0))),
      });
      t.Print(std::cout);
    }

    const JsonValue* workers = server->Get("workers");
    if (workers != nullptr && workers->is_array() &&
        workers->AsArray().size() > 1) {
      std::printf("\nPer-worker (batches finalized / stage quanta run):\n");
      TablePrinter t({"Worker", "Live", "Batches", "Stages", "Busy ms p50",
                      "Busy ms p99"});
      for (const JsonValue& w : workers->AsArray()) {
        const int64_t id = static_cast<int64_t>(w.GetNumberOr("id", -1));
        const JsonValue* busy = histograms->Get(
            "serve.worker.busy_seconds." + std::to_string(id));
        t.AddRow({std::to_string(id),
                  w.Get("live") != nullptr && w.Get("live")->AsBool()
                      ? "yes"
                      : "NO",
                  std::to_string(static_cast<long long>(
                      w.GetNumberOr("batches", 0))),
                  std::to_string(static_cast<long long>(
                      w.GetNumberOr("stages", 0))),
                  busy != nullptr ? Ms(busy->GetNumberOr("p50", 0.0)) : "-",
                  busy != nullptr ? Ms(busy->GetNumberOr("p99", 0.0)) : "-"});
      }
      t.Print(std::cout);
    }

    const JsonValue* alphas = server->Get("alphas");
    if (alphas != nullptr && alphas->is_array() && cur.rows > 0) {
      std::printf("\nPer-member usage (cascade order serves high α first):\n");
      TablePrinter t({"Member", "Alpha", "Rows evaluated", "Share"});
      const std::vector<JsonValue>& a = alphas->AsArray();
      for (size_t i = 0; i < a.size(); ++i) {
        const int64_t member_rows = CounterOr(
            *counters, "serve.member_rows." + std::to_string(i), 0);
        t.AddRow({std::to_string(i), FormatFloat(a[i].AsNumber(), 3),
                  std::to_string(static_cast<long long>(member_rows)),
                  FormatPercent(static_cast<double>(member_rows) /
                                static_cast<double>(cur.rows))});
      }
      t.Print(std::cout);
    }

    const JsonValue* depth = histograms->Get("serve.cascade_depth");
    if (depth != nullptr && depth->GetNumberOr("count", 0.0) > 0) {
      std::printf("\nCascade exit depth: mean %s  p50 %s  p95 %s  max %s\n",
                  FormatFloat(depth->GetNumberOr("mean", 0.0), 2).c_str(),
                  FormatFloat(depth->GetNumberOr("p50", 0.0), 0).c_str(),
                  FormatFloat(depth->GetNumberOr("p95", 0.0), 0).c_str(),
                  FormatFloat(depth->GetNumberOr("max", 0.0), 0).c_str());
    }
    std::fflush(stdout);

    ++frames;
    if (once || (max_frames > 0 && frames >= max_frames)) return 0;
    prev = cur;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.Define("host", "127.0.0.1", "server observability host");
  flags.Define("port", "0", "server observability (HTTP) port, required");
  flags.Define("interval_ms", "1000", "poll period");
  flags.Define("once", "false", "print one snapshot and exit");
  flags.Define("frames", "0", "exit after N frames (0 = until killed)");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    flags.PrintHelp("edde-top");
    return 0;
  }
  // A malformed or out-of-range integer exits 2 (FlagParser::GetInt).
  constexpr int kIntMax = std::numeric_limits<int>::max();
  const int port = flags.GetInt("port", 0, 65535);
  if (port == 0) {
    std::fprintf(stderr, "--port is required (the edde-serve --http_port)\n");
    return 2;
  }
  return WatchLoop(flags.GetString("host"), static_cast<uint16_t>(port),
                   flags.GetInt("interval_ms", 0, kIntMax),
                   flags.GetBool("once"), flags.GetInt("frames", 0, kIntMax));
}

}  // namespace
}  // namespace edde

int main(int argc, char** argv) { return edde::Main(argc, argv); }
