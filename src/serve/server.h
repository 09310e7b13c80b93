#ifndef EDDE_SERVE_SERVER_H_
#define EDDE_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ensemble/ensemble_model.h"
#include "serve/batcher.h"
#include "serve/http.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "utils/metrics.h"
#include "utils/socket.h"
#include "utils/status.h"

namespace edde {
namespace serve {

/// A freshly loaded candidate model for hot reload, plus its provenance
/// string — what ServerConfig::reload_source returns. The server validates
/// the candidate (geometry, predictable α) before swapping it in.
struct ReloadCandidate {
  std::shared_ptr<const EnsembleModel> model;
  std::string source;
};

struct ServerConfig {
  /// 0 = ephemeral (query the bound port with port() after Start).
  uint16_t port = 0;
  /// Rows that make a batch "full" (ship immediately).
  int64_t max_batch_rows = 64;
  /// A partial batch ships once its oldest request has waited this long.
  int64_t max_delay_ms = 2;
  /// Rows one request may carry; larger requests get an error response.
  int64_t max_request_rows = 1024;
  /// Queued-row cap; Submits beyond it get an overload error response.
  int64_t max_queue_rows = 4096;
  /// α-ordered early-exit cascade (DESIGN.md §12). Off = the same member
  /// stages with exits disabled: every member evaluates every row. The
  /// argmax (and thus every served label) is identical either way — the
  /// cascade's decision rule is exact; only latency and the depth
  /// histogram change.
  bool cascade = true;
  /// Batch workers consuming the admission queue concurrently
  /// (DESIGN.md §15). Each worker runs one member stage of a batch per
  /// quantum, so N > 1 pipelines member stages across workers (worker B
  /// runs member m−1 of batch i+1 while worker A runs member m of batch
  /// i). 1 (the default) answers a batch before popping the next; a pool
  /// keeps 2 × N batches in flight. Predictions are bit-identical at any
  /// worker count — per-connection ordering is restored by the
  /// sequence-numbered response writer — only latency and the per-worker
  /// telemetry change.
  int num_batch_workers = 1;
  /// Observability plane (DESIGN.md §14): embedded HTTP listener serving
  /// GET /metrics (Prometheus exposition), /healthz (readiness),
  /// /statusz (JSON status) and /reloadz (hot-reload trigger, §16).
  /// -1 = disabled, 0 = ephemeral port (query with http_port() after
  /// Start). The plane is read-only apart from /reloadz and changes no
  /// prediction — bit-identity with the plane off is tested.
  int http_port = -1;
  /// Server-imposed per-request deadline in ms, measured from admission.
  /// Combined with a client-supplied deadline_ms the tighter one wins; a
  /// request still unstarted past its effective deadline is shed with a
  /// deadline_exceeded error before worker execution. 0 = no server
  /// deadline (requests without a client deadline never expire — the
  /// historical behavior).
  int64_t max_request_ms = 0;
  /// Queue-age load-shedding line in ms (DESIGN.md §16): once the oldest
  /// queued request has waited this long, new Submits are refused with an
  /// `unavailable` error and /healthz answers 503 — tripping *before* the
  /// max_queue_rows backpressure cap so load balancers divert traffic
  /// while the server still has headroom. 0 = disabled.
  int64_t shed_queue_age_ms = 0;
  /// SO_SNDTIMEO for response writes. A peer that stops reading stalls
  /// its connection's ordered writer at most this long; then the write
  /// fails DeadlineExceeded, the connection is declared dead and every
  /// parked or future frame for it is discarded (workers never block on a
  /// wedged reader). <= 0 = block indefinitely (pre-§16 behavior).
  int64_t send_timeout_ms = 5000;
  /// Hot-reload loader: returns a freshly loaded candidate (e.g. re-reads
  /// the --model artifact). Invoked by
  /// /reloadz and ReloadFromSource(); unset = reload unsupported. Runs on
  /// the caller's thread under the server's reload lock.
  std::function<Result<ReloadCandidate>()> reload_source;
};

/// Batched ensemble inference server.
///
/// Threads: one acceptor, one reader per connection, one batch dispatcher,
/// and `num_batch_workers` batch workers. Readers parse + validate frames
/// and Submit them to the AdmissionQueue; the dispatcher coalesces them
/// into batches (batcher.h) and hands each batch to the worker pool, which
/// runs the ensemble one member stage per quantum in cascade order (with
/// early exit unless the cascade is off), pipelined across workers, and
/// releases each response through its origin connection's ordered writer
/// (admission-order sequence numbers, so a slow batch can never reorder a
/// connection's replies).
///
/// Telemetry (metrics/trace stack): serve.requests / serve.rows /
/// serve.errors / serve.batches counters, serve.queue_rows /
/// serve.workers / serve.inflight_batches gauges,
/// serve.request_latency_seconds / serve.batch_rows / serve.cascade_depth /
/// serve.members_evaluated histograms, per-worker
/// serve.worker.{batches,stages}.<i> counters and
/// serve.worker.busy_seconds.<i> histograms, trace regions serve/batch and
/// serve/member on per-worker timeline tracks ("serve/worker <i>").
class InferenceServer {
 public:
  /// `model` must outlive the server and satisfy CheckPredictable();
  /// `input_dim`/`num_classes` pin the request/response geometry (the
  /// ensemble file does not self-describe its architecture).
  InferenceServer(const EnsembleModel* model, int64_t input_dim,
                  int64_t num_classes, ServerConfig config);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Binds, listens and spawns the threads. Call once.
  Status Start();

  /// The bound port (valid after Start).
  uint16_t port() const { return port_; }

  /// The observability listener's bound port (valid after Start when
  /// config.http_port >= 0; 0 when the plane is disabled).
  uint16_t http_port() const { return http_ ? http_->port() : 0; }

  /// Flips the /healthz readiness answer to 503 without stopping anything —
  /// the lame-duck signal load balancers watch during a drain window.
  /// Stop() sets it implicitly. Idempotent; thread-safe.
  void SetDraining(bool draining) { draining_.store(draining); }

  /// Readiness as /healthz reports it: started, not draining, at least one
  /// batch worker live, admission queue below its backpressure cap and not
  /// load-shedding on queue age. Per-worker liveness is /statusz's job.
  bool Ready() const;

  /// Stops accepting, drains queued requests through the worker pool,
  /// closes every connection and joins all threads. Idempotent.
  void Stop();

  /// Hot model reload (DESIGN.md §16): validates `model` — geometry
  /// derived from its weight shapes must match the serving
  /// input_dim/num_classes, and it must satisfy CheckPredictable() — then
  /// atomically
  /// publishes it as the next generation. In-flight batches finish on the
  /// generation they started with; batches formed after the swap use the
  /// new model. On any validation failure the old generation keeps
  /// serving untouched (rollback is a no-op by construction). Thread-safe;
  /// concurrent reloads are serialized.
  Status Reload(std::shared_ptr<const EnsembleModel> model,
                std::string source);

  /// Runs config.reload_source and feeds the candidate through Reload().
  /// The path /reloadz and SIGHUP take. FailedPrecondition when no
  /// reload_source is configured; any read/validation failure leaves the
  /// old generation serving.
  Status ReloadFromSource();

  /// Current serving generation id (starts at 1, bumped per reload).
  uint64_t generation() const { return registry_.generation_id(); }

 private:
  struct Connection {
    UniqueFd fd;
    /// Ordered response writer (DESIGN.md §15). Every response frame a
    /// reader admits (or answers directly with an error) takes the next
    /// sequence number; workers release frames through WriteOrdered, which
    /// holds out-of-order completions in `held` until their predecessors
    /// have gone out. next_seq is touched only by the connection's single
    /// reader thread; next_write/held are guarded by write_mu.
    std::mutex write_mu;
    uint64_t next_seq = 0;
    uint64_t next_write = 0;
    std::map<uint64_t, std::string> held;
    /// Set (under write_mu) when a send failed or timed out: the peer is
    /// gone or wedged. Parked frames are discarded at that moment and
    /// every later frame for this connection is dropped instead of parked,
    /// so a dead fd can neither stall successors nor leak map entries.
    bool dead = false;
  };

  /// One coalesced batch moving through the worker pool. Built lazily on
  /// first worker touch (exec_start is what queue-wait is measured to);
  /// the task bounces between the ready deque and workers, one member
  /// stage per hop.
  struct BatchTask {
    std::vector<PendingRequest> batch;
    int64_t total_rows = 0;
    Tensor features;
    std::unique_ptr<PartialPredictAccumulator> acc;
    std::chrono::steady_clock::time_point exec_start;
    bool started = false;
    /// The serving generation this batch is pinned to, acquired at first
    /// worker touch. A hot swap mid-batch cannot affect it: the batch
    /// finishes on this model and stamps this generation id into its
    /// responses (DESIGN.md §16).
    std::shared_ptr<const ServingGeneration> gen;
  };

  /// Cached per-worker instruments plus the liveness flag /statusz reads.
  struct WorkerState {
    std::atomic<bool> live{false};
    Counter* batches = nullptr;        // serve.worker.batches.<i>
    Counter* stages = nullptr;         // serve.worker.stages.<i>
    Histogram* busy_seconds = nullptr; // serve.worker.busy_seconds.<i>
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void DispatchLoop();
  void WorkerLoop(int worker_id);
  /// Lazily initializes the task (queue-wait spans, batch metrics,
  /// feature gather, accumulator) and runs one scheduling quantum: a
  /// single member stage. Returns true when the batch is finished and
  /// answered.
  bool RunTaskStep(BatchTask* task, WorkerState* worker);
  void StartTask(BatchTask* task);
  /// Evaluates the next cascade member on the still-undecided rows (every
  /// row when the cascade is off). Returns true once the cascade has
  /// decided every row or the chain is exhausted.
  bool RunCascadeStage(BatchTask* task);
  /// Builds and releases every response of a finished batch.
  void FinalizeBatch(BatchTask* task);
  static void WriteOrdered(Connection* conn, uint64_t seq,
                           const std::string& frame);
  Status StartHttp();
  std::string StatuszJson() const;

  /// Generation store (model_registry.h). The constructor wraps the
  /// caller's raw pointer in a non-owning generation 1; reloads install
  /// owned successors.
  ModelRegistry registry_;
  const int64_t input_dim_;
  const int64_t num_classes_;
  const ServerConfig config_;
  /// Serializes Reload/ReloadFromSource callers.
  std::mutex reload_mu_;
  int num_workers_ = 1;
  /// Batches popped from the admission queue but not yet answered: 1 for
  /// one worker, 2 × num_workers_ otherwise.
  int64_t max_inflight_ = 1;

  AdmissionQueue queue_;
  UniqueFd listener_;
  uint16_t port_ = 0;

  std::thread acceptor_;
  std::thread dispatcher_;
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<WorkerState>> worker_state_;
  std::atomic<int> live_workers_{0};

  // Stage scheduler: the dispatcher pushes admitted batches (bounded by
  // max_inflight_), workers pop tasks, run one quantum, and either
  // re-enqueue or finalize. inflight_ counts batches popped from the
  // admission queue but not yet answered.
  std::mutex sched_mu_;
  std::condition_variable sched_cv_;     // workers: task ready / all done
  std::condition_variable inflight_cv_;  // dispatcher: capacity available
  std::deque<std::unique_ptr<BatchTask>> ready_;
  int64_t inflight_ = 0;
  bool dispatch_done_ = false;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> readers_;
  bool started_ = false;
  /// Written by Stop(), read by the acceptor thread to tell an induced
  /// accept failure from a real one — hence atomic.
  std::atomic<bool> stopped_{false};

  // Observability plane.
  std::unique_ptr<HttpServer> http_;
  std::atomic<bool> draining_{false};
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace serve
}  // namespace edde

#endif  // EDDE_SERVE_SERVER_H_
