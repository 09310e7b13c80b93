#ifndef EDDE_UTILS_THREADPOOL_H_
#define EDDE_UTILS_THREADPOOL_H_

#include <cstdint>
#include <functional>

namespace edde {

/// Shared parallel-execution substrate.
///
/// EDDE parallelizes across ensemble members only: member evaluation,
/// Bagging's members and the β probes' students go through ParallelFor
/// below, backed by one lazily created process-wide worker pool. Tensor
/// kernels and layers never enter the pool; a member's forward and backward
/// run serially on the thread that trains it. The pool size defaults to
/// std::thread::hardware_concurrency and can be overridden either by the
/// EDDE_NUM_THREADS environment variable (read once, at first use) or
/// programmatically via SetNumThreads.
///
/// Determinism contract: ParallelFor runs `fn(i)` exactly once for every
/// index, and a task that writes only its own index's outputs gives the
/// same results for every thread count, including 1. Anything shared
/// between tasks (an ensemble joined in slot order) is ordered by the
/// caller.

/// Number of threads ParallelFor may use (>= 1). Resolves, in order:
/// SetNumThreads override, EDDE_NUM_THREADS, hardware_concurrency.
int NumThreads();

/// Overrides the pool size. `n <= 0` restores the default resolution
/// (EDDE_NUM_THREADS / hardware_concurrency). Must not be called while
/// parallel work is in flight; intended for tests, benches and main().
void SetNumThreads(int n);

/// Runs `fn(i)` for every i in [begin, end), one index per pool task. Runs
/// serially in index order when the range holds one index, when the pool
/// has one thread, or when called from inside another ParallelFor (no
/// nested parallelism). Blocks until every task finished; the first
/// exception thrown by `fn` is rethrown in the caller.
void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t)>& fn);

/// Blocks until any in-flight ParallelFor region has fully drained.
///
/// The graceful-shutdown path calls this before flushing the metrics/trace
/// sinks: a SIGINT/SIGTERM safe point can be reached by one thread while
/// another still has a ParallelFor in flight, and flushing concurrently
/// with its workers' metric writes can tear the final JSONL lines. No-op
/// when the pool was never created or when called from inside a parallel
/// region (workers must not wait on themselves).
void QuiescePool();

}  // namespace edde

#endif  // EDDE_UTILS_THREADPOOL_H_
