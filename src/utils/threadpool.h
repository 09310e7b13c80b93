#ifndef EDDE_UTILS_THREADPOOL_H_
#define EDDE_UTILS_THREADPOOL_H_

#include <cstdint>
#include <functional>

namespace edde {

/// Shared parallel-execution substrate.
///
/// All intra-op (tensor kernels) and inter-op (ensemble members, probe
/// students) parallelism in EDDE goes through ParallelFor below, backed by
/// one lazily created process-wide worker pool. The pool size defaults to
/// std::thread::hardware_concurrency and can be overridden either by the
/// EDDE_NUM_THREADS environment variable (read once, at first use) or
/// programmatically via SetNumThreads.
///
/// Determinism contract: ParallelFor splits [begin, end) into contiguous
/// chunks and invokes `fn(chunk_begin, chunk_end)` exactly once per chunk.
/// Each chunk runs serially in index order inside one worker, so per-row
/// reductions keep their serial accumulation order. Kernels that only write
/// disjoint rows therefore produce bit-identical results for every thread
/// count, including 1. Cross-chunk reductions are the caller's
/// responsibility and must combine partials in chunk order to stay
/// deterministic.

/// Number of threads ParallelFor may use (>= 1). Resolves, in order:
/// SetNumThreads override, EDDE_NUM_THREADS, hardware_concurrency.
int NumThreads();

/// Overrides the pool size. `n <= 0` restores the default resolution
/// (EDDE_NUM_THREADS / hardware_concurrency). Must not be called while
/// parallel work is in flight; intended for tests, benches and main().
void SetNumThreads(int n);

/// Runs `fn(chunk_begin, chunk_end)` over contiguous chunks covering
/// [begin, end). Chunks contain at least `grain` indices (except possibly
/// the last), so callers pick `grain` such that one grain amortizes the
/// scheduling overhead. Runs serially when the range is at most one grain,
/// when the pool has one thread, or when called from inside another
/// ParallelFor (no nested parallelism). Blocks until every chunk finished;
/// the first exception thrown by `fn` is rethrown in the caller.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

/// ParallelFor grain for rows of `work_per_row` scalar ops: as many rows
/// as make about `target_work` ops, and at least one. Tiny problems (tests,
/// the tiny models' layers) then stay on the serial path. Kernels that
/// write disjoint rows and keep each row's serial order are bit-identical
/// for every grain, so the grain only sets the scheduling overhead.
int64_t RowGrain(int64_t work_per_row, int64_t target_work);

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
