#ifndef EDDE_TENSOR_GEMM_H_
#define EDDE_TENSOR_GEMM_H_

#include <cstdint>
#include <vector>

namespace edde {

// ---------------------------------------------------------------------------
// Packed GEMM micro-kernel layer (see DESIGN.md §10)
// ---------------------------------------------------------------------------
//
// Two kernel tiers sit behind one dispatch point. Both run the same
// register tiles, DirectConv<Ops>::GemmTile (tensor/conv_direct.h), whose
// widest, 6x16, is also the direct Conv2d kernels' widest tile:
//
//  - kPortable: the tile's `#pragma omp simd` policy (tensor/ops.cc).
//    Works on any target; compiles to SSE2 at the default baseline and to
//    AVX2 under -march=x86-64-v3.
//  - kAvx2: the tile's AVX2/FMA intrinsics policy, in kernels_avx2.cc —
//    the one translation unit compiled with -mavx2 -mfma, holding every
//    AVX2 kernel — selected at runtime only when the CPU reports both
//    features.
//
// Dispatch resolves once per process: EDDE_GEMM_KERNEL=portable|avx2|auto
// if set (invalid or unsupported values fall back with a warning), else
// AVX2 when available, else portable. SetGemmKernel overrides
// programmatically (tests, benches). For a fixed dispatch path results are
// bit-identical across repeated runs; the two kernels differ from each
// other in final-ulp rounding (the FMA contraction in kAvx2), which is why
// accuracy tests compare against a float64 reference rather than across
// kernels.

enum class GemmKernel {
  kAuto = 0,  ///< resolve from EDDE_GEMM_KERNEL / CPU features
  kPortable,
  kAvx2,
};

/// The kernel GemmRaw will run (never kAuto).
GemmKernel ActiveGemmKernel();

/// "portable" / "avx2" ("auto" for kAuto).
const char* GemmKernelName(GemmKernel kernel);

/// Overrides kernel selection; kAuto restores the default resolution.
/// Not safe while GEMMs are in flight (tests/benches/main only).
void SetGemmKernel(GemmKernel kernel);

/// Epilogue fused into the final C-tile update so Dense/Conv forward need
/// no second pass over the activations: optional bias broadcast (per C row
/// for conv's (OC, OH*OW) layout, per C column for dense's (N, OUT)
/// layout) followed by an optional ReLU clamp.
struct GemmEpilogue {
  enum class Bias { kNone, kPerRow, kPerCol };
  Bias bias = Bias::kNone;
  /// Length m for kPerRow, length n for kPerCol. Must outlive the call.
  const float* bias_data = nullptr;
  bool relu = false;

  bool empty() const { return bias == Bias::kNone && !relu; }
};

/// C = alpha * op(A) @ op(B) + beta * C on raw row-major buffers, with the
/// fused epilogue applied to the final result. op(A) is (m, k) and op(B)
/// is (k, n); `a`/`b` point at the stored (possibly transposed) matrices
/// with leading dimensions lda/ldb. Transposed operands are absorbed by
/// the packing stage — nothing is materialized. Scratch comes from the
/// calling thread's ScratchArena, so steady-state calls allocate nothing.
void GemmRaw(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
             float alpha, const float* a, int64_t lda, const float* b,
             int64_t ldb, float beta, float* c, int64_t ldc,
             const GemmEpilogue& epilogue = GemmEpilogue());

/// op(B) of a GemmRaw packed once, for a B that many calls share: a layer's
/// weights frozen for eval (Module::PackForEval). Holds op(B) (k, n) in the
/// micro-kernel's panel layout, which is private to gemm.cc. Immutable once
/// built, so any number of threads may multiply by it at once. A product
/// with a PackedB has the bits of the same product with B unpacked.
class PackedB {
 public:
  PackedB() = default;
  /// Packs op(B): B is stored (k, n) row-major at `b` with leading
  /// dimension ldb, or (n, k) when `trans_b`. Copies; `b` may then change.
  PackedB(bool trans_b, int64_t k, int64_t n, const float* b, int64_t ldb);

  bool empty() const { return n_ == 0; }
  int64_t k() const { return k_; }
  int64_t n() const { return n_; }

 private:
  friend void GemmRaw(bool trans_a, int64_t m, float alpha, const float* a,
                      int64_t lda, const PackedB& b, float beta, float* c,
                      int64_t ldc, const GemmEpilogue& epilogue);

  int64_t k_ = 0;
  int64_t n_ = 0;
  std::vector<float> panels_;
};

/// GemmRaw with op(B) taken from a PackedB: (m, b.k()) @ (b.k(), b.n()).
void GemmRaw(bool trans_a, int64_t m, float alpha, const float* a,
             int64_t lda, const PackedB& b, float beta, float* c, int64_t ldc,
             const GemmEpilogue& epilogue = GemmEpilogue());

namespace gemm_internal {

/// Cache blocking: kKC k-steps per packed panel (A block kMC*kKC ~ L2,
/// B sub-panel kKC*kNR ~ L1). The register tile, kMR x kNR, is defined
/// in gemm.cc from the direct conv's (tensor/conv_direct.h).
constexpr int64_t kKC = 256;

/// True when the AVX2/FMA kernels (kernels_avx2.cc) are compiled in and the
/// CPU supports both features. Gates the kAvx2 tier.
bool Avx2Available();

}  // namespace gemm_internal

}  // namespace edde

#endif  // EDDE_TENSOR_GEMM_H_
