#ifndef EDDE_UTILS_ARENA_H_
#define EDDE_UTILS_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace edde {

/// Per-thread bump-pointer scratch memory for kernel workspaces.
///
/// The tensor kernels (GEMM packing panels, conv step tables) need
/// short-lived buffers on every call; fresh Tensors would be per-batch
/// malloc traffic on the training hot path. A ScratchArena instead hands
/// out 64-byte-aligned slices of a thread-local slab: allocation is a
/// pointer bump, release is restoring an offset, and the slab itself is
/// retained at its high-water mark, so a steady-state training loop
/// performs zero heap allocations for kernel scratch.
///
/// Lifetime rules (see DESIGN.md §10):
///  - Scratch is only valid while the ArenaScope that covers its
///    allocation is alive. Never store arena pointers in objects that
///    outlive the kernel call.
///  - Each thread owns its arena (thread_local), so member threads and
///    serving workers never share scratch and need no synchronization.
///    A kernel that needs scratch opens its own ArenaScope; nesting is
///    free.
///  - Growth never moves live allocations: when the current slab is
///    exhausted a new one is chained, and the next top-level ArenaScope
///    exit consolidates every chained slab into one slab sized at the
///    high-water mark ("allocate twice, never again").
class ScratchArena {
 public:
  ScratchArena() = default;
  ~ScratchArena();
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// The calling thread's arena, created on first use.
  static ScratchArena& ForCurrentThread();

  /// Returns `bytes` of 64-byte-aligned scratch. Valid until the enclosing
  /// ArenaScope closes.
  void* Alloc(size_t bytes);

  /// Typed helper: `count` floats of aligned scratch.
  float* AllocFloats(int64_t count) {
    return static_cast<float*>(Alloc(static_cast<size_t>(count) *
                                     sizeof(float)));
  }

  /// Bytes currently handed out (across all chained slabs).
  size_t bytes_in_use() const { return in_use_; }

  /// Largest bytes_in_use observed over the arena's lifetime.
  size_t high_water() const { return high_water_; }

  /// Total bytes of slab capacity currently reserved.
  size_t capacity() const;

  /// Number of heap (slab) allocations this arena has performed. A
  /// steady-state loop re-running the same kernels must not move this.
  int64_t slab_allocs() const { return slab_allocs_; }

 private:
  friend class ArenaScope;

  struct Slab {
    char* base = nullptr;
    size_t size = 0;
    size_t used = 0;
  };

  struct Mark {
    size_t slab_index = 0;
    size_t slab_used = 0;
    size_t in_use = 0;
  };

  Mark Save() const;
  void Restore(const Mark& mark);
  /// Replaces all chained slabs with a single slab >= high_water_. Only
  /// called when no scratch is live (top-level scope exit).
  void Consolidate();

  std::vector<Slab> slabs_;
  size_t active_ = 0;  ///< index of the slab currently bump-allocating
  size_t in_use_ = 0;
  size_t high_water_ = 0;
  int64_t slab_allocs_ = 0;
};

/// RAII scratch region on the current thread's arena: every Alloc made
/// while the scope is alive is released (offset restored, capacity kept)
/// when it closes. Scopes nest; the outermost close also consolidates
/// chained slabs so the next iteration runs out of one resident slab.
class ArenaScope {
 public:
  ArenaScope();
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  /// Scratch from the scope's arena (convenience forwarders).
  float* AllocFloats(int64_t count) { return arena_->AllocFloats(count); }
  void* Alloc(size_t bytes) { return arena_->Alloc(bytes); }

 private:
  ScratchArena* arena_;
  ScratchArena::Mark mark_;
  bool top_level_;
};

/// Process-wide gauge of reserved scratch bytes, summed over all thread
/// arenas that currently exist (exported as the `arena.reserved_bytes`
/// metric). Test / observability support.
size_t TotalArenaReservedBytes();

}  // namespace edde

#endif  // EDDE_UTILS_ARENA_H_
