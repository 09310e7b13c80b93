#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include <sys/socket.h>

#include "ensemble/ensemble_io.h"
#include "tensor/tensor.h"
#include "utils/failpoint.h"
#include "utils/logging.h"
#include "utils/metrics.h"
#include "utils/run_manifest.h"
#include "utils/trace.h"

namespace edde {
namespace serve {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

InferenceServer::InferenceServer(const EnsembleModel* model,
                                 int64_t input_dim, int64_t num_classes,
                                 ServerConfig config)
    // Generation 1 wraps the caller's pointer without owning it (the model
    // must outlive the server); reloaded generations are owned.
    : registry_(std::shared_ptr<const EnsembleModel>(model,
                                                     [](const EnsembleModel*) {
                                                     }),
                "(initial)"),
      input_dim_(input_dim),
      num_classes_(num_classes),
      config_(config),
      queue_(config.max_batch_rows,
             std::chrono::milliseconds(config.max_delay_ms),
             config.max_queue_rows,
             std::chrono::milliseconds(config.shed_queue_age_ms)) {
  EDDE_CHECK_GT(input_dim_, 0);
  EDDE_CHECK_GT(num_classes_, 0);
  num_workers_ = std::max(1, config_.num_batch_workers);
  // One worker answers a batch before the next is popped (the serial
  // schedule); a pool keeps two batches per worker in flight, so the
  // member-stage pipeline always has a batch to interleave when one exits
  // early.
  max_inflight_ =
      num_workers_ == 1 ? 1 : 2 * static_cast<int64_t>(num_workers_);
}

InferenceServer::~InferenceServer() { Stop(); }

Status InferenceServer::Start() {
  EDDE_CHECK(!started_) << "Start() called twice";
  const std::shared_ptr<const ServingGeneration> gen = registry_.Acquire();
  EDDE_RETURN_NOT_OK(gen->model->CheckPredictable());
  Result<UniqueFd> listener = ListenTcp(config_.port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).ValueOrDie();
  Result<uint16_t> port = LocalPort(listener_.get());
  if (!port.ok()) return port.status();
  port_ = port.ValueOrDie();
  start_time_ = std::chrono::steady_clock::now();
  if (config_.http_port >= 0) EDDE_RETURN_NOT_OK(StartHttp());
  started_ = true;
  worker_state_.reserve(static_cast<size_t>(num_workers_));
  for (int i = 0; i < num_workers_; ++i) {
    auto state = std::make_unique<WorkerState>();
    const std::string suffix = "." + std::to_string(i);
    state->batches = MetricsRegistry::Global().GetCounter(
        "serve.worker.batches" + suffix);
    state->stages = MetricsRegistry::Global().GetCounter(
        "serve.worker.stages" + suffix);
    state->busy_seconds = MetricsRegistry::Global().GetHistogram(
        "serve.worker.busy_seconds" + suffix);
    // Marked live before the thread spawns so Ready() is true the moment
    // Start() returns, same as the single-worker server always was.
    state->live.store(true);
    worker_state_.push_back(std::move(state));
  }
  live_workers_.store(num_workers_);
  MetricsRegistry::Global().GetGauge("serve.workers")
      ->Set(static_cast<double>(num_workers_));
  acceptor_ = std::thread([this] { AcceptLoop(); });
  dispatcher_ = std::thread([this] { DispatchLoop(); });
  workers_.reserve(static_cast<size_t>(num_workers_));
  for (int i = 0; i < num_workers_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  EDDE_LOG(INFO) << "edde-serve listening on 127.0.0.1:" << port_
                 << " (members=" << gen->model->size()
                 << " cascade=" << (config_.cascade ? "on" : "off")
                 << " workers=" << num_workers_
                 << (http_ ? " http=" + std::to_string(http_->port()) : "")
                 << ")";
  return Status::OK();
}

bool InferenceServer::Ready() const {
  return live_workers_.load() > 0 && !draining_.load() &&
         queue_.queued_rows() < config_.max_queue_rows && !queue_.shedding();
}

Status InferenceServer::Reload(std::shared_ptr<const EnsembleModel> model,
                               std::string source) {
  static Counter* const failures =
      MetricsRegistry::Global().GetCounter("serve.reload_failures");
  std::lock_guard<std::mutex> lock(reload_mu_);
  Status validated = [&]() -> Status {
    if (model == nullptr) {
      return Status::InvalidArgument("reload candidate is null");
    }
    EDDE_RETURN_NOT_OK(model->CheckPredictable());
    // Geometry check against the weight shapes themselves (the request
    // validation path pins input_dim_/num_classes_, so a model with other
    // shapes would EDDE_CHECK-crash inside a worker — reject it here
    // instead). 0 = the architecture has no rank ≥ 2 parameter to derive
    // from; nothing to cross-check then.
    const int64_t derived_dim = DerivedInputDim(*model);
    if (derived_dim != 0 && derived_dim != input_dim_) {
      return Status::FailedPrecondition(
          "reload candidate input dim " + std::to_string(derived_dim) +
          " != serving input dim " + std::to_string(input_dim_));
    }
    const int64_t derived_classes = DerivedNumClasses(*model);
    if (derived_classes != 0 && derived_classes != num_classes_) {
      return Status::FailedPrecondition(
          "reload candidate class count " + std::to_string(derived_classes) +
          " != serving class count " + std::to_string(num_classes_));
    }
    EDDE_FAILPOINT_STATUS("serve.reload.swap");
    return Status::OK();
  }();
  if (!validated.ok()) {
    failures->Increment();
    EDDE_LOG(WARNING) << "hot reload rejected (" << source
                      << "): " << validated << " — generation "
                      << registry_.generation_id() << " keeps serving";
    return validated;
  }
  const int64_t members = model->size();
  const uint64_t id = registry_.Install(std::move(model), source);
  EDDE_LOG(INFO) << "hot reload: generation " << id << " live (source="
                 << source << " members=" << members
                 << "); in-flight batches finish on their pinned generation";
  return Status::OK();
}

Status InferenceServer::ReloadFromSource() {
  if (!config_.reload_source) {
    return Status::FailedPrecondition("no reload source configured");
  }
  static Counter* const failures =
      MetricsRegistry::Global().GetCounter("serve.reload_failures");
  Result<ReloadCandidate> candidate = [&]() -> Result<ReloadCandidate> {
    EDDE_FAILPOINT_STATUS("serve.reload.read");
    return config_.reload_source();
  }();
  if (!candidate.ok()) {
    failures->Increment();
    EDDE_LOG(WARNING) << "hot reload: candidate load failed: "
                      << candidate.status() << " — generation "
                      << registry_.generation_id() << " keeps serving";
    return candidate.status();
  }
  ReloadCandidate c = std::move(candidate).ValueOrDie();
  return Reload(std::move(c.model), std::move(c.source));
}

void InferenceServer::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  // Readiness flips first: a scraper probing /healthz during the drain
  // window sees 503 while in-flight requests still complete.
  draining_.store(true);
  // Wake the blocked accept() without closing the fd under it.
  ::shutdown(listener_.get(), SHUT_RDWR);
  acceptor_.join();
  listener_.reset();
  // Drain: the dispatcher hands every already-admitted batch to the pool
  // before it sees stopped-and-drained, then workers finish the in-flight
  // tail (the exit predicate holds them until inflight_ == 0).
  queue_.Stop();
  dispatcher_.join();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) ::shutdown(conn->fd.get(), SHUT_RDWR);
  for (auto& reader : readers_) reader.join();
  readers_.clear();
  // The observability plane goes down last so the drain stays observable.
  if (http_) http_->Stop();
}

void InferenceServer::AcceptLoop() {
  static Counter* const accepted =
      MetricsRegistry::Global().GetCounter("serve.connections");
  for (;;) {
    Result<UniqueFd> conn_fd = AcceptConn(listener_.get());
    if (!conn_fd.ok()) {
      // Stop() shut the listener down — every accept error after that is
      // the clean-exit path, anything before it is worth a log line.
      if (!stopped_) {
        EDDE_LOG(WARNING) << "accept failed: " << conn_fd.status();
      }
      return;
    }
    EDDE_FAILPOINT("serve.accept");
    accepted->Increment();
    auto conn = std::make_shared<Connection>();
    conn->fd = std::move(conn_fd).ValueOrDie();
    if (config_.send_timeout_ms > 0) {
      // A peer that stops reading can stall a response write at most this
      // long; WriteOrdered then declares the connection dead instead of
      // pinning a worker forever.
      (void)SetSendTimeout(conn->fd.get(), config_.send_timeout_ms);
    }
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopped_) return;  // raced with Stop; drop the connection
    conns_.push_back(conn);
    readers_.emplace_back([this, conn] { ReaderLoop(conn); });
  }
}

void InferenceServer::WriteOrdered(Connection* conn, uint64_t seq,
                                   const std::string& frame) {
  static Counter* const write_timeouts =
      MetricsRegistry::Global().GetCounter("serve.write_timeouts");
  static Counter* const dropped =
      MetricsRegistry::Global().GetCounter("serve.dropped_responses");
  // Sends one frame; on failure marks the connection dead, discards every
  // parked frame and kicks the reader off its blocking recv. Returns
  // false once the connection is dead (callers just count the drop).
  const auto send_one = [&](const std::string& f) {
    if (conn->dead) {
      dropped->Increment();
      return false;
    }
    Status sent = Status::OK();
    if (failpoint::internal::g_armed.load(std::memory_order_relaxed)) {
      sent = failpoint::Hit("serve.write");
    }
    if (sent.ok()) sent = SendFrame(conn->fd.get(), f);
    if (sent.ok()) return true;
    if (sent.code() == StatusCode::kDeadlineExceeded) {
      write_timeouts->Increment();
    }
    conn->dead = true;
    dropped->Increment(static_cast<int64_t>(1 + conn->held.size()));
    conn->held.clear();
    // Unblock the connection's reader so the fd tears down promptly
    // instead of waiting for the peer (which may never speak again).
    ::shutdown(conn->fd.get(), SHUT_RDWR);
    return false;
  };
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (seq != conn->next_write) {
    if (conn->dead) {
      // Frames for a dead fd are dropped, never parked: held stays empty,
      // successors can't stall, nothing leaks.
      dropped->Increment();
      return;
    }
    // A later-admitted request finished first (its batch was smaller or
    // exited the cascade earlier). Park the frame; the predecessor's
    // completion flushes it below.
    conn->held.emplace(seq, frame);
    return;
  }
  send_one(frame);
  ++conn->next_write;
  // Flush successors. Each frame is detached from the map before the send:
  // a failing send clears `held`, so an iterator held across it would
  // dangle.
  while (!conn->held.empty() &&
         conn->held.begin()->first == conn->next_write) {
    const std::string next = std::move(conn->held.begin()->second);
    conn->held.erase(conn->held.begin());
    send_one(next);
    ++conn->next_write;
  }
}

void InferenceServer::ReaderLoop(std::shared_ptr<Connection> conn) {
  static Counter* const errors =
      MetricsRegistry::Global().GetCounter("serve.errors");
  static Gauge* const queue_rows =
      MetricsRegistry::Global().GetGauge("serve.queue_rows");
  for (;;) {
    std::string payload;
    const Status recv = RecvFrame(conn->fd.get(), &payload);
    if (!recv.ok()) {
      if (recv.code() == StatusCode::kInvalidArgument) {
        // Oversized length prefix: the stream is out of sync — answer once
        // (best effort, id unknown) and drop the connection.
        errors->Increment();
        WriteOrdered(conn.get(), conn->next_seq++,
                     BuildErrorResponse(-1, recv.message(),
                                        WireErrorCode(recv.code())));
      }
      return;  // NotFound = clean EOF; IOError = peer gone / shutdown
    }

    PendingRequest pending;
    pending.arrival = std::chrono::steady_clock::now();
    Status parsed = ParsePredictRequest(payload, &pending.request);
    if (parsed.ok() && pending.request.dim != input_dim_) {
      parsed = Status::InvalidArgument(
          "request dim " + std::to_string(pending.request.dim) +
          " != model input dim " + std::to_string(input_dim_));
    }
    if (parsed.ok() && pending.request.rows > config_.max_request_rows) {
      parsed = Status::InvalidArgument(
          "request carries " + std::to_string(pending.request.rows) +
          " rows; per-request cap is " +
          std::to_string(config_.max_request_rows));
    }
    if (!parsed.ok()) {
      errors->Increment();
      WriteOrdered(conn.get(), conn->next_seq++,
                   BuildErrorResponse(pending.request.id, parsed.message(),
                                      WireErrorCode(parsed.code())));
      continue;  // protocol-level error; the connection itself is fine
    }
    // Every admitted request carries a nonzero trace id from here on —
    // client-supplied or minted — so its spans are always followable.
    if (pending.request.trace_id == 0) {
      pending.request.trace_id = MintTraceId();
    }
    // Effective deadline: the tighter of the client's deadline_ms and the
    // server's max_request_ms, measured from admission. Enforced at batch
    // dispatch (StartTask sheds expired requests before evaluation).
    int64_t deadline_ms = pending.request.deadline_ms;
    if (config_.max_request_ms > 0 &&
        (deadline_ms == 0 || config_.max_request_ms < deadline_ms)) {
      deadline_ms = config_.max_request_ms;
    }
    if (deadline_ms > 0) {
      pending.deadline =
          pending.arrival + std::chrono::milliseconds(deadline_ms);
    }

    // This frame's response — predict or error — takes the next sequence
    // number NOW, on the connection's single reader thread, so responses
    // leave in admission order no matter which batch worker finishes
    // first. next_seq needs no lock: only this thread touches it.
    const uint64_t seq = conn->next_seq++;
    pending.respond = [conn, seq](const PredictResponse& resp) {
      WriteOrdered(conn.get(), seq, BuildPredictResponse(resp));
    };
    const int64_t id = pending.request.id;
    const Status admitted = queue_.Submit(std::move(pending));
    if (!admitted.ok()) {
      // pending (and its never-called respond closure) died with the
      // failed Submit; the seq is released here instead. The code tells
      // the client what to do: "unavailable" (shed/backpressure) is
      // retry-with-backoff, "failed_precondition" (shutdown) is try
      // another replica.
      errors->Increment();
      WriteOrdered(conn.get(), seq,
                   BuildErrorResponse(id, admitted.message(),
                                      WireErrorCode(admitted.code())));
      continue;
    }
    queue_rows->Set(static_cast<double>(queue_.queued_rows()));
  }
}

void InferenceServer::DispatchLoop() {
  SetTraceThreadName("serve/dispatch");
  static Gauge* const inflight_gauge =
      MetricsRegistry::Global().GetGauge("serve.inflight_batches");
  std::vector<PendingRequest> batch;
  for (;;) {
    {
      // The in-flight cap makes workers=1 the serial schedule: with
      // max_inflight_ == 1 the next batch is not even popped until the
      // previous one has been answered, so deadline coalescing sees the
      // same queue at any worker count.
      std::unique_lock<std::mutex> lock(sched_mu_);
      inflight_cv_.wait(lock, [&] { return inflight_ < max_inflight_; });
    }
    if (!queue_.NextBatch(&batch)) break;  // stopped and drained
    auto task = std::make_unique<BatchTask>();
    task->batch = std::move(batch);
    {
      std::lock_guard<std::mutex> lock(sched_mu_);
      ready_.push_back(std::move(task));
      ++inflight_;
      inflight_gauge->Set(static_cast<double>(inflight_));
    }
    sched_cv_.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    dispatch_done_ = true;
  }
  sched_cv_.notify_all();
}

void InferenceServer::WorkerLoop(int worker_id) {
  char name[32];
  std::snprintf(name, sizeof(name), "serve/worker-%d", worker_id);
  SetTraceThreadName(name);
  static Gauge* const inflight_gauge =
      MetricsRegistry::Global().GetGauge("serve.inflight_batches");
  WorkerState* const state = worker_state_[static_cast<size_t>(worker_id)]
                                 .get();
  for (;;) {
    std::unique_ptr<BatchTask> task;
    {
      std::unique_lock<std::mutex> lock(sched_mu_);
      sched_cv_.wait(lock, [&] {
        return !ready_.empty() || (dispatch_done_ && inflight_ == 0);
      });
      if (ready_.empty()) break;  // dispatch done AND every batch answered
      task = std::move(ready_.front());
      ready_.pop_front();
    }
    if (RunTaskStep(task.get(), state)) {
      bool all_done = false;
      {
        std::lock_guard<std::mutex> lock(sched_mu_);
        --inflight_;
        inflight_gauge->Set(static_cast<double>(inflight_));
        all_done = dispatch_done_ && inflight_ == 0 && ready_.empty();
      }
      inflight_cv_.notify_one();
      if (all_done) sched_cv_.notify_all();  // release idle siblings
    } else {
      // One member stage done, batch unfinished: back of the deque, so the
      // pool round-robins across in-flight batches — worker B picks up
      // batch i+1's member m−1 while this batch's member m cools off.
      {
        std::lock_guard<std::mutex> lock(sched_mu_);
        ready_.push_back(std::move(task));
      }
      sched_cv_.notify_one();
    }
  }
  state->live.store(false);
  live_workers_.fetch_sub(1);
}

bool InferenceServer::RunTaskStep(BatchTask* task, WorkerState* worker) {
  static const TraceRegion* const batch_region =
      GetTraceRegion("serve/batch");
  // A batch of one request — the common low-load shape — is entirely that
  // request's work, so its id becomes the ambient tag and the batch /
  // predict / member spans inherit it. A coalesced batch serves many ids
  // at once; tagging it with one of them would lie, so it stays untagged
  // and the per-request queue_wait / request spans carry the ids instead.
  const uint64_t solo_id =
      task->batch.size() == 1 ? task->batch[0].request.trace_id : 0;
  ScopedTraceId batch_trace(solo_id);
  const auto quantum_start = std::chrono::steady_clock::now();
  if (!task->started) StartTask(task);
  // total_rows == 0: every request was shed at dispatch (deadline expiry)
  // and answered from StartTask — nothing to evaluate.
  const bool done = task->total_rows == 0 || RunCascadeStage(task);
  if (done) {
    if (task->total_rows > 0) FinalizeBatch(task);
    // The batch span covers every stage quantum; emitted complete since
    // the stages ran on whichever workers picked them up.
    TraceCompleteSpan(batch_region, task->exec_start,
                      std::chrono::steady_clock::now(), solo_id);
  }
  worker->stages->Increment();
  worker->busy_seconds->Record(SecondsSince(quantum_start));
  if (done) worker->batches->Increment();
  return done;
}

void InferenceServer::StartTask(BatchTask* task) {
  static Counter* const batches =
      MetricsRegistry::Global().GetCounter("serve.batches");
  static Histogram* const batch_rows =
      MetricsRegistry::Global().GetHistogram("serve.batch_rows");
  static Counter* const deadline_shed =
      MetricsRegistry::Global().GetCounter("serve.deadline_shed");
  static Counter* const errors =
      MetricsRegistry::Global().GetCounter("serve.errors");
  static const TraceRegion* const queue_wait_region =
      GetTraceRegion("serve/queue_wait");
  // The batch pins the serving generation here, at first worker touch: a
  // hot swap from now on affects only later batches (DESIGN.md §16).
  task->gen = registry_.Acquire();
  // Queue wait runs arrival → first worker touch, so it includes both the
  // coalescing delay and any time parked in the stage scheduler.
  task->exec_start = std::chrono::steady_clock::now();
  for (const PendingRequest& p : task->batch) {
    TraceCompleteSpan(queue_wait_region, p.arrival, task->exec_start,
                      p.request.trace_id);
  }
  EDDE_FAILPOINT("serve.batch");
  // Deadline shed (DESIGN.md §16): a request whose effective deadline
  // passed while it queued gets its deadline_exceeded error now, before
  // any feature gather or member evaluation — workers never burn forward
  // passes on an answer the client has already given up on. The armed
  // serve.deadline failpoint (delay) widens this window deterministically
  // for the tests.
  EDDE_FAILPOINT("serve.deadline");
  const auto now = std::chrono::steady_clock::now();
  size_t kept = 0;
  for (size_t i = 0; i < task->batch.size(); ++i) {
    PendingRequest& p = task->batch[i];
    if (p.deadline < now) {
      deadline_shed->Increment();
      errors->Increment();
      PredictResponse resp;
      resp.id = p.request.id;
      resp.ok = false;
      resp.error =
          "deadline exceeded before execution (queued " +
          std::to_string(
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  now - p.arrival)
                  .count()) +
          "ms)";
      resp.code = "deadline_exceeded";
      p.respond(resp);
      continue;
    }
    if (kept != i) task->batch[kept] = std::move(p);
    ++kept;
  }
  task->batch.resize(kept);
  int64_t total_rows = 0;
  for (const PendingRequest& p : task->batch) total_rows += p.request.rows;
  task->total_rows = total_rows;
  task->started = true;
  if (total_rows == 0) return;  // everything shed; nothing to evaluate
  batches->Increment();
  batch_rows->Record(static_cast<double>(total_rows));
  task->features = Tensor(Shape{total_rows, input_dim_});
  float* dst = task->features.data();
  for (const PendingRequest& p : task->batch) {
    std::memcpy(dst, p.request.features.data(),
                p.request.features.size() * sizeof(float));
    dst += p.request.features.size();
  }
  task->acc = std::make_unique<PartialPredictAccumulator>(
      task->gen->model->alphas(), total_rows, num_classes_);
}

bool InferenceServer::RunCascadeStage(BatchTask* task) {
  static const TraceRegion* const member_region =
      GetTraceRegion("serve/member");
  // Descending-α order, one member per call. With the cascade on, each
  // member after the first sees only the still-undecided rows (gathered
  // into a compacted batch), so a row stops costing forward passes the
  // moment its margin clears the outstanding α mass. Full mode is the
  // cascade with exits disabled: every member sees the whole batch, and
  // the batch ends only when the chain is exhausted. Row outputs are
  // batch-composition-independent (each row's GEMM/softmax reads only its
  // own inputs), so compaction never perturbs a probability — and neither
  // does which worker runs the stage.
  PartialPredictAccumulator& acc = *task->acc;
  const std::vector<int64_t>& order = acc.order();
  const size_t next = static_cast<size_t>(acc.members_consumed());
  if (next >= order.size()) return true;
  const int64_t member = order[next];
  const std::vector<int64_t>& open = acc.UndecidedRows();
  Tensor input;
  if (!config_.cascade ||
      static_cast<int64_t>(open.size()) == task->total_rows) {
    input = task->features;
  } else {
    input = Tensor(Shape{static_cast<int64_t>(open.size()), input_dim_});
    float* dst = input.data();
    for (const int64_t r : open) {
      std::memcpy(dst, task->features.data() + r * input_dim_,
                  static_cast<size_t>(input_dim_) * sizeof(float));
      dst += input_dim_;
    }
  }
  task->gen->member_rows[static_cast<size_t>(member)]->Increment(
      input.shape().dim(0));
  TraceScope member_scope(member_region);
  // No lock: eval-mode Forward writes no module state (nn/module.h), so
  // another worker may run this member on another batch at the same time.
  const Tensor probs = task->gen->model->MemberProbsOnBatch(member, input);
  const bool all_decided = acc.Accumulate(probs);
  return (config_.cascade && all_decided) ||
         static_cast<size_t>(acc.members_consumed()) >= order.size();
}

void InferenceServer::FinalizeBatch(BatchTask* task) {
  static Counter* const requests =
      MetricsRegistry::Global().GetCounter("serve.requests");
  static Counter* const rows_served =
      MetricsRegistry::Global().GetCounter("serve.rows");
  static Histogram* const latency = MetricsRegistry::Global().GetHistogram(
      "serve.request_latency_seconds");
  static Histogram* const cascade_depth =
      MetricsRegistry::Global().GetHistogram("serve.cascade_depth");
  static Histogram* const members_evaluated =
      MetricsRegistry::Global().GetHistogram("serve.members_evaluated");
  // rows × members actually run: the cascade's compute-saved measure.
  // bench_serve diffs this across a load phase and divides by rows·T.
  static Counter* const member_row_evals =
      MetricsRegistry::Global().GetCounter("serve.member_row_evals");
  static const TraceRegion* const request_region =
      GetTraceRegion("serve/request");

  PartialPredictAccumulator& acc = *task->acc;
  members_evaluated->Record(static_cast<double>(acc.members_consumed()));
  member_row_evals->Increment(acc.rows_evaluated());

  const std::vector<int> labels = acc.Labels();
  // Probs payload only when someone asked — it is the expensive field.
  Tensor probs;
  bool have_probs = false;
  for (const PendingRequest& p : task->batch) {
    have_probs |= p.request.want_probs;
  }
  if (have_probs) probs = acc.Probs();

  int64_t row = 0;
  for (const PendingRequest& p : task->batch) {
    PredictResponse resp;
    resp.id = p.request.id;
    resp.ok = true;
    resp.trace_id = p.request.trace_id;
    // The generation that actually computed this answer — the batch's
    // pinned one, which may trail the registry's current during a reload.
    resp.generation = task->gen->id;
    resp.labels.reserve(static_cast<size_t>(p.request.rows));
    resp.depth.reserve(static_cast<size_t>(p.request.rows));
    for (int64_t r = row; r < row + p.request.rows; ++r) {
      resp.labels.push_back(labels[static_cast<size_t>(r)]);
      cascade_depth->Record(static_cast<double>(acc.row_depth(r)));
      resp.depth.push_back(acc.row_depth(r));
    }
    if (p.request.want_probs) {
      resp.k = num_classes_;
      const float* src = probs.data() + row * num_classes_;
      resp.probs.assign(src, src + p.request.rows * num_classes_);
    }
    requests->Increment();
    rows_served->Increment(p.request.rows);
    latency->Record(SecondsSince(p.arrival));
    p.respond(resp);
    // End-to-end span (arrival → response written), tagged per request.
    TraceCompleteSpan(request_region, p.arrival,
                      std::chrono::steady_clock::now(), p.request.trace_id);
    row += p.request.rows;
  }
}

Status InferenceServer::StartHttp() {
  HttpServerConfig http_config;
  http_config.port = static_cast<uint16_t>(config_.http_port);
  http_ = std::make_unique<HttpServer>(http_config);
  http_->Handle("/metrics", [](const HttpRequest&) {
    HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = MetricsRegistry::Global().RenderPrometheusText();
    return resp;
  });
  http_->Handle("/healthz", [this](const HttpRequest&) {
    HttpResponse resp;
    if (draining_.load()) {
      resp.status = 503;
      resp.body = "draining\n";
    } else if (live_workers_.load() <= 0) {
      resp.status = 503;
      resp.body = "no batch worker live\n";
    } else if (queue_.shedding()) {
      // Queue age trips before the row cap: the server is not keeping up
      // even though the queue still has room (DESIGN.md §16).
      resp.status = 503;
      resp.body = "shedding load: queue age " +
                  std::to_string(queue_.oldest_age_ms()) + "ms over cap\n";
    } else if (queue_.queued_rows() >= config_.max_queue_rows) {
      resp.status = 503;
      resp.body = "admission queue at backpressure cap\n";
    } else {
      resp.body = "ok\n";
    }
    return resp;
  });
  http_->Handle("/statusz", [this](const HttpRequest&) {
    HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = StatuszJson();
    return resp;
  });
  http_->Handle("/reloadz", [this](const HttpRequest&) {
    const Status reloaded = ReloadFromSource();
    HttpResponse resp;
    resp.content_type = "application/json";
    JsonBuilder b;
    b.Add("ok", reloaded.ok());
    b.Add("generation", static_cast<int64_t>(registry_.generation_id()));
    if (!reloaded.ok()) {
      resp.status = 500;
      b.Add("error", reloaded.ToString());
    }
    resp.body = b.Build();
    return resp;
  });
  Status started = http_->Start();
  if (!started.ok()) http_.reset();
  return started;
}

namespace {

/// serve.* counters/gauges plus the serve trace regions (time/serve/...)
/// belong in /statusz; the rest of the registry is /metrics' job.
bool IsServeInstrument(const std::string& name) {
  return name.rfind("serve.", 0) == 0 || name.rfind("time/serve/", 0) == 0;
}

std::string HistogramJson(const HistogramSnapshot& h) {
  std::string buckets = "[";
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    if (i > 0) buckets.push_back(',');
    char buf[64];
    std::snprintf(buf, sizeof(buf), "[%.17g,%lld]", h.buckets[i].first,
                  static_cast<long long>(h.buckets[i].second));
    buckets.append(buf);
  }
  buckets.push_back(']');
  JsonBuilder b;
  b.Add("count", h.count);
  b.Add("sum", h.sum);
  b.Add("min", h.min);
  b.Add("max", h.max);
  b.Add("mean", h.mean);
  b.Add("p50", h.p50);
  b.Add("p95", h.p95);
  b.Add("p99", h.p99);
  b.AddRaw("buckets", buckets);
  return b.Build();
}

}  // namespace

std::string InferenceServer::StatuszJson() const {
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const std::shared_ptr<const ServingGeneration> gen = registry_.Acquire();

  JsonBuilder server;
  server.Add("port", static_cast<int64_t>(port_));
  server.Add("http_port", static_cast<int64_t>(http_ ? http_->port() : 0));
  server.Add("uptime_seconds", SecondsSince(start_time_));
  server.Add("generation", static_cast<int64_t>(gen->id));
  server.Add("model_source", gen->source);
  server.Add("reloads", static_cast<int64_t>(registry_.reloads()));
  server.Add("members", gen->model->size());
  server.Add("cascade", config_.cascade);
  server.Add("num_batch_workers", static_cast<int64_t>(num_workers_));
  server.Add("max_batch_rows", config_.max_batch_rows);
  server.Add("max_queue_rows", config_.max_queue_rows);
  server.Add("queue_rows", queue_.queued_rows());
  server.Add("queue_age_ms", queue_.oldest_age_ms());
  server.Add("max_request_ms", config_.max_request_ms);
  server.Add("shed_queue_age_ms", config_.shed_queue_age_ms);
  server.Add("ready", Ready());
  server.Add("draining", draining_.load());
  {
    std::string alphas = "[";
    const std::vector<double>& a = gen->model->alphas();
    for (size_t i = 0; i < a.size(); ++i) {
      if (i > 0) alphas.push_back(',');
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", a[i]);
      alphas.append(buf);
    }
    alphas.push_back(']');
    server.AddRaw("alphas", alphas);
  }
  {
    // One row per batch worker: liveness plus the work it has done, read
    // from the same instruments /metrics exports (edde-top renders this).
    std::string workers = "[";
    for (size_t i = 0; i < worker_state_.size(); ++i) {
      if (i > 0) workers.push_back(',');
      const WorkerState& w = *worker_state_[i];
      JsonBuilder row;
      row.Add("id", static_cast<int64_t>(i));
      row.Add("live", w.live.load());
      row.Add("batches", w.batches->Value());
      row.Add("stages", w.stages->Value());
      workers.append(row.Build());
    }
    workers.push_back(']');
    server.AddRaw("workers", workers);
  }

  JsonBuilder counters;
  for (const auto& [name, value] : snapshot.counters) {
    if (IsServeInstrument(name)) counters.Add(name, value);
  }
  JsonBuilder gauges;
  for (const auto& [name, value] : snapshot.gauges) {
    if (IsServeInstrument(name)) gauges.Add(name, value);
  }
  JsonBuilder histograms;
  for (const auto& [name, h] : snapshot.histograms) {
    if (IsServeInstrument(name)) histograms.AddRaw(name, HistogramJson(h));
  }

  JsonBuilder root;
  root.AddRaw("server", server.Build());
  root.AddRaw("manifest", RunManifestJson());
  root.AddRaw("counters", counters.Build());
  root.AddRaw("gauges", gauges.Build());
  root.AddRaw("histograms", histograms.Build());
  return root.Build();
}

}  // namespace serve
}  // namespace edde
