#include "utils/threadpool.h"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "utils/arena.h"
#include "utils/logging.h"
#include "utils/metrics.h"
#include "utils/run_manifest.h"
#include "utils/trace.h"

namespace edde {

namespace {

// True while the current thread is executing a ParallelFor chunk (either as
// a pool worker or as the caller participating in its own region). Nested
// ParallelFor calls from such a thread run serially instead of deadlocking
// on the shared pool.
thread_local bool t_inside_parallel_region = false;

int HardwareThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

int ResolveDefaultThreads() {
  if (const char* env = std::getenv("EDDE_NUM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 1024) {
      return static_cast<int>(v);
    }
    EDDE_LOG(WARNING) << "ignoring invalid EDDE_NUM_THREADS=\"" << env
                      << "\" (want an integer in [1, 1024])";
  }
  return HardwareThreads();
}

// One parallel region in flight. Workers pull chunk indices from `next`;
// holding the Task alive via shared_ptr means a worker that wakes up late
// only ever sees an exhausted counter, never a dangling callback.
struct Task {
  std::function<void(int64_t)> run_chunk;
  int64_t num_chunks = 0;
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> pending{0};
  std::mutex err_mu;
  std::exception_ptr error;
};

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads) {
    const int workers = num_threads - 1;
    workers_.reserve(static_cast<size_t>(workers > 0 ? workers : 0));
    for (int i = 0; i < workers; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    task_cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  int parallelism() const { return static_cast<int>(workers_.size()) + 1; }

  // Waits for the region currently in Run (if any) to finish. Run holds
  // run_mu_ for the whole region, so acquiring it here means every chunk
  // completed and the caller observed the region's side effects.
  void Quiesce() { std::lock_guard<std::mutex> lock(run_mu_); }

  // Runs fn(chunk) for every chunk in [0, num_chunks); the caller thread
  // participates. Serialized across callers so concurrent top-level regions
  // queue instead of interleaving half-sized slices.
  void Run(int64_t num_chunks, const std::function<void(int64_t)>& fn) {
    static Counter* const regions =
        MetricsRegistry::Global().GetCounter("threadpool.regions");
    static Counter* const chunks =
        MetricsRegistry::Global().GetCounter("threadpool.chunks");
    static const TraceRegion* const queue_wait =
        GetTraceRegion("threadpool.queue_wait");
    static const TraceRegion* const region_time =
        GetTraceRegion("threadpool.region");

    std::unique_lock<std::mutex> run_lock(run_mu_, std::defer_lock);
    {
      // Contention on run_mu_ is queue wait: time a concurrent caller's
      // region spends blocked behind the region currently in flight.
      TraceScope wait_scope(queue_wait);
      run_lock.lock();
    }
    TraceScope region_scope(region_time);
    regions->Increment();
    chunks->Increment(num_chunks);
    auto task = std::make_shared<Task>();
    task->run_chunk = fn;
    task->num_chunks = num_chunks;
    task->pending.store(num_chunks, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      current_ = task;
      ++generation_;
    }
    task_cv_.notify_all();

    t_inside_parallel_region = true;
    DrainChunks(task.get());
    t_inside_parallel_region = false;

    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] {
        return task->pending.load(std::memory_order_acquire) == 0;
      });
      current_.reset();
    }
    if (task->error) std::rethrow_exception(task->error);
  }

 private:
  void DrainChunks(Task* task) {
    // One timeline span per drain: on a worker track this is the stripe of
    // a ParallelFor region that ran on that worker, nesting the caller's
    // own spans (trainer/epoch -> pool/drain) correctly.
    static const TraceRegion* const drain_region =
        GetTraceRegion("pool/drain");
    TraceScope drain_scope(drain_region);
    for (;;) {
      const int64_t chunk =
          task->next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= task->num_chunks) break;
      try {
        task->run_chunk(chunk);
      } catch (...) {
        std::lock_guard<std::mutex> lock(task->err_mu);
        if (!task->error) task->error = std::current_exception();
      }
      if (task->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last chunk: wake the caller. Taking mu_ orders the notify after
        // the caller's predicate check, so the wakeup cannot be lost.
        std::lock_guard<std::mutex> lock(mu_);
        done_cv_.notify_all();
      }
    }
  }

  void WorkerLoop(int worker_index) {
    char track_name[32];
    std::snprintf(track_name, sizeof(track_name), "pool/worker %d",
                  worker_index + 1);
    SetTraceThreadName(track_name);
    // Touch the worker's scratch arena up front so its thread_local is
    // constructed outside any timed region; kernels running on this worker
    // then bump-allocate from it with no lazy-init branch in the hot path.
    ScratchArena::ForCurrentThread();
    uint64_t seen_generation = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      task_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      std::shared_ptr<Task> task = current_;
      lock.unlock();
      if (task != nullptr) {
        t_inside_parallel_region = true;
        DrainChunks(task.get());
        t_inside_parallel_region = false;
      }
      lock.lock();
    }
  }

  std::vector<std::thread> workers_;
  std::mutex run_mu_;  // serializes Run callers
  std::mutex mu_;      // guards generation_/current_/shutdown_
  std::condition_variable task_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;
  bool shutdown_ = false;
  std::shared_ptr<Task> current_;
};

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;  // guarded by g_pool_mu
int g_thread_override = 0;           // guarded by g_pool_mu; 0 = auto

ThreadPool* GetPool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool == nullptr) {
    const int n =
        g_thread_override > 0 ? g_thread_override : ResolveDefaultThreads();
    g_pool = std::make_unique<ThreadPool>(n);
    MetricsRegistry::Global()
        .GetGauge("threadpool.threads")
        ->Set(static_cast<double>(n));
    ManifestSetNumThreads(n);
  }
  return g_pool.get();
}

}  // namespace

int NumThreads() { return GetPool()->parallelism(); }

void QuiescePool() {
  if (t_inside_parallel_region) return;
  ThreadPool* pool = nullptr;
  {
    // Don't instantiate the pool just to wait on it: no pool ⇒ nothing in
    // flight. Drop g_pool_mu before blocking on run_mu_ so a concurrent
    // ParallelFor's GetPool() isn't serialized behind the drain.
    std::lock_guard<std::mutex> lock(g_pool_mu);
    pool = g_pool.get();
  }
  if (pool != nullptr) pool->Quiesce();
}

void SetNumThreads(int n) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_thread_override = n > 0 ? n : 0;
  g_pool.reset();  // rebuilt lazily at the next ParallelFor / NumThreads
}

void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t)>& fn) {
  if (begin >= end) return;
  ThreadPool* pool = end - begin == 1 || t_inside_parallel_region
                         ? nullptr
                         : GetPool();
  if (pool == nullptr || pool->parallelism() <= 1) {
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  pool->Run(end - begin, [&](int64_t task) { fn(begin + task); });
}

}  // namespace edde
