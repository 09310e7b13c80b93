#include "utils/arena.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "utils/threadpool.h"

namespace edde {
namespace {

TEST(ArenaTest, AllocationsAreAligned) {
  ArenaScope scope;
  for (int i = 0; i < 16; ++i) {
    void* p = scope.Alloc(static_cast<size_t>(i * 7 + 1));
    EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(p) % 64) << "alloc " << i;
  }
}

TEST(ArenaTest, ScopeRestoresInUseBytes) {
  ScratchArena& arena = ScratchArena::ForCurrentThread();
  const size_t before = arena.bytes_in_use();
  {
    ArenaScope scope;
    scope.Alloc(1000);
    scope.Alloc(5000);
    EXPECT_GT(arena.bytes_in_use(), before);
    {
      ArenaScope inner;
      inner.Alloc(3000);
      EXPECT_GT(arena.bytes_in_use(), before + 6000);
    }
  }
  EXPECT_EQ(before, arena.bytes_in_use());
}

TEST(ArenaTest, AllocationsDoNotOverlapAndHoldData) {
  ArenaScope scope;
  float* a = scope.AllocFloats(1000);
  float* b = scope.AllocFloats(1000);
  for (int i = 0; i < 1000; ++i) {
    a[i] = static_cast<float>(i);
    b[i] = static_cast<float>(-i);
  }
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(static_cast<float>(i), a[i]);
    ASSERT_EQ(static_cast<float>(-i), b[i]);
  }
}

// The "allocate twice, never again" contract: after a first pass grows the
// arena (possibly chaining slabs) and the top-level scope exit consolidates
// to the high-water mark, re-running the same allocation pattern performs
// zero further slab allocations.
TEST(ArenaTest, HighWaterMarkReuseStopsSlabGrowth) {
  ScratchArena& arena = ScratchArena::ForCurrentThread();
  auto run_pattern = [] {
    ArenaScope scope;
    // Three growing buffers exceeding the 1 MiB minimum slab, forcing
    // chained growth on a cold arena.
    scope.AllocFloats(400'000);
    scope.AllocFloats(300'000);
    scope.AllocFloats(200'000);
  };
  run_pattern();  // grow
  run_pattern();  // first warm pass may still consolidate capacity
  const int64_t warm = arena.slab_allocs();
  for (int i = 0; i < 10; ++i) run_pattern();
  EXPECT_EQ(warm, arena.slab_allocs())
      << "steady-state pattern re-allocated slabs";
  EXPECT_GE(arena.capacity(), arena.high_water());
  EXPECT_GT(TotalArenaReservedBytes(), 0u);
}

TEST(ArenaTest, GrowthNeverMovesLiveAllocations) {
  ArenaScope scope;
  float* a = scope.AllocFloats(1024);
  for (int i = 0; i < 1024; ++i) a[i] = static_cast<float>(i * 3);
  // Force growth past any plausible existing capacity.
  scope.AllocFloats(64 * 1024 * 1024 / 4);
  for (int i = 0; i < 1024; ++i) {
    ASSERT_EQ(static_cast<float>(i * 3), a[i]) << "live scratch moved";
  }
}

// Workers get disjoint thread-local arenas: concurrent tasks fill their
// scratch with a task-unique pattern and verify it after a reread, which
// fails under ASan (and in value checks) if any two workers shared bytes.
TEST(ArenaTest, ConcurrentWorkersGetDisjointScratch) {
  SetNumThreads(4);
  const int64_t tasks = 64;
  std::vector<int> ok(static_cast<size_t>(tasks), 0);
  ParallelFor(0, tasks, [&](int64_t c) {
    ArenaScope scope;
    const int64_t elems = 20'000 + c * 16;
    float* buf = scope.AllocFloats(elems);
    const float tag = static_cast<float>(c + 1);
    for (int64_t i = 0; i < elems; ++i) buf[i] = tag;
    // A second allocation in the same scope must not alias the first.
    float* buf2 = scope.AllocFloats(1024);
    std::memset(buf2, 0xAB, 1024 * sizeof(float));
    bool good = true;
    for (int64_t i = 0; i < elems; ++i) good = good && buf[i] == tag;
    ok[static_cast<size_t>(c)] = good ? 1 : 0;
  });
  SetNumThreads(0);
  for (int64_t c = 0; c < tasks; ++c) {
    EXPECT_EQ(1, ok[static_cast<size_t>(c)]) << "task " << c;
  }
}

}  // namespace
}  // namespace edde
