#include "utils/arena.h"

#include <atomic>
#include <cstdlib>
#include <new>

#include "utils/logging.h"
#include "utils/metrics.h"

namespace edde {

namespace {

constexpr size_t kAlignment = 64;
constexpr size_t kMinSlabBytes = size_t{1} << 20;  // 1 MiB

size_t AlignUp(size_t n) { return (n + kAlignment - 1) & ~(kAlignment - 1); }

// Reserved-slab bytes across every live arena; kept with plain atomics so
// TotalArenaReservedBytes never has to walk other threads' arenas.
std::atomic<size_t> g_reserved_bytes{0};

// thread_local so member threads and serving workers get disjoint scratch
// for free. The arena is destroyed (and its bytes unaccounted) when the
// thread exits.
thread_local ScratchArena t_arena;

// Depth of nested ArenaScopes on this thread; depth 0 -> 1 marks the
// top-level scope whose exit may consolidate slabs.
thread_local int t_scope_depth = 0;

Gauge* ReservedGauge() {
  static Gauge* const gauge =
      MetricsRegistry::Global().GetGauge("arena.reserved_bytes");
  return gauge;
}

}  // namespace

ScratchArena& ScratchArena::ForCurrentThread() { return t_arena; }

ScratchArena::~ScratchArena() {
  for (Slab& slab : slabs_) {
    g_reserved_bytes.fetch_sub(slab.size, std::memory_order_relaxed);
    ::operator delete[](slab.base, std::align_val_t{kAlignment});
  }
}

size_t ScratchArena::capacity() const {
  size_t total = 0;
  for (const Slab& slab : slabs_) total += slab.size;
  return total;
}

void* ScratchArena::Alloc(size_t bytes) {
  bytes = AlignUp(bytes == 0 ? 1 : bytes);
  if (active_ < slabs_.size()) {
    Slab& slab = slabs_[active_];
    if (slab.size - slab.used >= bytes) {
      char* p = slab.base + slab.used;
      slab.used += bytes;
      in_use_ += bytes;
      if (in_use_ > high_water_) high_water_ = in_use_;
      return p;
    }
    // Try the next chained slab (present after a Restore that rewound past
    // a growth point).
    if (active_ + 1 < slabs_.size() && slabs_[active_ + 1].size >= bytes) {
      ++active_;
      slabs_[active_].used = bytes;
      in_use_ += bytes;
      if (in_use_ > high_water_) high_water_ = in_use_;
      return slabs_[active_].base;
    }
  }
  // Grow: chain a new slab without moving live allocations. Doubling keeps
  // the number of growth events logarithmic in the peak demand.
  size_t slab_bytes = kMinSlabBytes;
  const size_t cap = capacity();
  if (cap * 2 > slab_bytes) slab_bytes = cap * 2;
  if (bytes > slab_bytes) slab_bytes = AlignUp(bytes);
  Slab slab;
  slab.base = static_cast<char*>(
      ::operator new[](slab_bytes, std::align_val_t{kAlignment}));
  slab.size = slab_bytes;
  slab.used = bytes;
  // Drop any unused chained slabs beyond the active one; they are smaller
  // than the new slab by construction.
  while (slabs_.size() > (slabs_.empty() ? 0 : active_ + 1)) {
    g_reserved_bytes.fetch_sub(slabs_.back().size, std::memory_order_relaxed);
    ::operator delete[](slabs_.back().base, std::align_val_t{kAlignment});
    slabs_.pop_back();
  }
  slabs_.push_back(slab);
  active_ = slabs_.size() - 1;
  ++slab_allocs_;
  g_reserved_bytes.fetch_add(slab_bytes, std::memory_order_relaxed);
  ReservedGauge()->Set(
      static_cast<double>(g_reserved_bytes.load(std::memory_order_relaxed)));
  in_use_ += bytes;
  if (in_use_ > high_water_) high_water_ = in_use_;
  return slab.base;
}

ScratchArena::Mark ScratchArena::Save() const {
  Mark mark;
  mark.slab_index = active_;
  mark.slab_used = active_ < slabs_.size() ? slabs_[active_].used : 0;
  mark.in_use = in_use_;
  return mark;
}

void ScratchArena::Restore(const Mark& mark) {
  for (size_t i = mark.slab_index + 1; i < slabs_.size(); ++i) {
    slabs_[i].used = 0;
  }
  active_ = mark.slab_index;
  if (active_ < slabs_.size()) slabs_[active_].used = mark.slab_used;
  in_use_ = mark.in_use;
}

void ScratchArena::Consolidate() {
  EDDE_CHECK_EQ(static_cast<int64_t>(in_use_), 0)
      << "arena consolidation with live scratch";
  if (slabs_.size() <= 1) return;
  const size_t want = AlignUp(high_water_ > kMinSlabBytes ? high_water_
                                                          : kMinSlabBytes);
  for (Slab& slab : slabs_) {
    g_reserved_bytes.fetch_sub(slab.size, std::memory_order_relaxed);
    ::operator delete[](slab.base, std::align_val_t{kAlignment});
  }
  slabs_.clear();
  Slab slab;
  slab.base = static_cast<char*>(
      ::operator new[](want, std::align_val_t{kAlignment}));
  slab.size = want;
  slab.used = 0;
  slabs_.push_back(slab);
  active_ = 0;
  ++slab_allocs_;
  g_reserved_bytes.fetch_add(want, std::memory_order_relaxed);
  ReservedGauge()->Set(
      static_cast<double>(g_reserved_bytes.load(std::memory_order_relaxed)));
}

ArenaScope::ArenaScope()
    : arena_(&ScratchArena::ForCurrentThread()),
      mark_(arena_->Save()),
      top_level_(t_scope_depth == 0) {
  ++t_scope_depth;
}

ArenaScope::~ArenaScope() {
  arena_->Restore(mark_);
  --t_scope_depth;
  if (top_level_ && arena_->slabs_.size() > 1 && arena_->in_use_ == 0) {
    arena_->Consolidate();
  }
}

size_t TotalArenaReservedBytes() {
  return g_reserved_bytes.load(std::memory_order_relaxed);
}

}  // namespace edde
