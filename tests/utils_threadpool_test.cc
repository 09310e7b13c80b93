#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "tensor/ops.h"
#include "tensor/rng.h"
#include "utils/threadpool.h"

namespace edde {
namespace {

// Restores the default pool size after every test so the suite does not
// leak a thread-count override into later tests.
class ParallelForTest : public ::testing::Test {
 protected:
  ~ParallelForTest() override { SetNumThreads(0); }
};

TEST_F(ParallelForTest, CoversEveryIndexExactlyOnce) {
  SetNumThreads(4);
  constexpr int64_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  ParallelFor(0, kN, 7, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST_F(ParallelForTest, EmptyRangeNeverInvokesBody) {
  SetNumThreads(4);
  int calls = 0;
  ParallelFor(0, 0, 1, [&](int64_t, int64_t) { ++calls; });
  ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  ParallelFor(10, 3, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST_F(ParallelForTest, GrainLargerThanRangeRunsSerially) {
  SetNumThreads(4);
  int calls = 0;
  int64_t seen_lo = -1, seen_hi = -1;
  ParallelFor(3, 10, 100, [&](int64_t lo, int64_t hi) {
    ++calls;  // single serial invocation: no synchronization needed
    seen_lo = lo;
    seen_hi = hi;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen_lo, 3);
  EXPECT_EQ(seen_hi, 10);
}

TEST_F(ParallelForTest, ChunksRespectGrain) {
  SetNumThreads(4);
  std::atomic<int64_t> min_chunk{1 << 30};
  ParallelFor(0, 100, 8, [&](int64_t lo, int64_t hi) {
    const int64_t len = hi - lo;
    int64_t cur = min_chunk.load();
    while (len < cur && !min_chunk.compare_exchange_weak(cur, len)) {
    }
  });
  // Every chunk except possibly the final remainder holds >= grain indices;
  // 100 = 12 * 8 + 4, so the smallest chunk is the 4-wide remainder.
  EXPECT_GE(min_chunk.load(), 4);
}

TEST_F(ParallelForTest, ExceptionPropagatesToCaller) {
  SetNumThreads(4);
  EXPECT_THROW(
      ParallelFor(0, 64, 1,
                  [&](int64_t lo, int64_t) {
                    if (lo == 13) throw std::runtime_error("chunk 13 failed");
                  }),
      std::runtime_error);
  // The pool must survive a throwing region and keep scheduling work.
  std::atomic<int64_t> sum{0};
  ParallelFor(0, 64, 1, [&](int64_t lo, int64_t hi) {
    int64_t local = 0;
    for (int64_t i = lo; i < hi; ++i) local += i;
    sum += local;
  });
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
}

TEST_F(ParallelForTest, ExceptionPropagatesFromSerialFallback) {
  SetNumThreads(1);
  EXPECT_THROW(ParallelFor(0, 8, 1,
                           [](int64_t, int64_t) {
                             throw std::runtime_error("serial failure");
                           }),
               std::runtime_error);
}

TEST_F(ParallelForTest, NestedCallsRunSerially) {
  SetNumThreads(4);
  std::atomic<int> inner_calls{0};
  ParallelFor(0, 8, 1, [&](int64_t, int64_t) {
    // Inside a region the nested loop must collapse to one serial call
    // rather than re-entering the pool.
    int calls = 0;
    ParallelFor(0, 100, 1, [&](int64_t lo, int64_t hi) {
      ++calls;
      EXPECT_EQ(lo, 0);
      EXPECT_EQ(hi, 100);
    });
    EXPECT_EQ(calls, 1);
    inner_calls += calls;
  });
  EXPECT_EQ(inner_calls.load(), 8);
}

TEST_F(ParallelForTest, SetNumThreadsControlsPoolSize) {
  SetNumThreads(3);
  EXPECT_EQ(NumThreads(), 3);
  SetNumThreads(1);
  EXPECT_EQ(NumThreads(), 1);
  SetNumThreads(0);
  EXPECT_GE(NumThreads(), 1);
}

// Kernel-level determinism: the row-parallel kernels must be bit-identical
// across thread counts (the contract DESIGN.md documents).
TEST_F(ParallelForTest, GemmBitIdenticalAcrossThreadCounts) {
  Rng rng(42);
  Tensor a(Shape{97, 63});
  Tensor b(Shape{63, 41});
  a.FillNormal(&rng, 0.0f, 1.0f);
  b.FillNormal(&rng, 0.0f, 1.0f);

  Tensor c1(Shape{97, 41});
  Tensor c4(Shape{97, 41});
  SetNumThreads(1);
  Gemm(false, false, 1.0f, a, b, 0.0f, &c1);
  SetNumThreads(4);
  Gemm(false, false, 1.0f, a, b, 0.0f, &c4);
  for (int64_t i = 0; i < c1.num_elements(); ++i) {
    ASSERT_EQ(c1.data()[i], c4.data()[i]) << "element " << i;
  }
}

TEST_F(ParallelForTest, SoftmaxBitIdenticalAcrossThreadCounts) {
  Rng rng(43);
  Tensor logits(Shape{513, 11});
  logits.FillNormal(&rng, 0.0f, 3.0f);

  SetNumThreads(1);
  const Tensor p1 = Softmax(logits);
  SetNumThreads(4);
  const Tensor p4 = Softmax(logits);
  for (int64_t i = 0; i < p1.num_elements(); ++i) {
    ASSERT_EQ(p1.data()[i], p4.data()[i]);
  }
}

}  // namespace
}  // namespace edde
