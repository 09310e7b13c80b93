#ifndef EDDE_TENSOR_GEMM_H_
#define EDDE_TENSOR_GEMM_H_

#include <cstdint>

namespace edde {

// ---------------------------------------------------------------------------
// Packed GEMM micro-kernel layer (see DESIGN.md §10)
// ---------------------------------------------------------------------------
//
// Three kernel implementations sit behind one dispatch point:
//
//  - kScalar: the original cache-blocked triple loop. Kept verbatim as the
//    reference implementation; bit-identical to the pre-packing code on any
//    input without exact zeros in op(A) (the old kernel skipped zero
//    multiplters, which also swallowed NaN/Inf from B — see
//    tensor_ops_test NaN-propagation coverage).
//  - kPortable: packed 6x16 register-tile micro-kernel written in
//    compiler-vectorizable form (`#pragma omp simd`). Works on any target;
//    compiles to SSE2 at the default baseline and to AVX2 under
//    -march=x86-64-v3.
//  - kAvx2: the same 6x16 tile as hand-written AVX2/FMA intrinsics,
//    compiled in its own translation unit with -mavx2 -mfma and selected
//    at runtime only when the CPU reports both features.
//
// Dispatch resolves once per process: EDDE_GEMM_KERNEL=scalar|portable|
// avx2|auto if set (invalid or unsupported values fall back with a
// warning), else AVX2 when available, else portable. SetGemmKernel
// overrides programmatically (tests, benches). For a fixed dispatch path
// results are bit-identical across thread counts and across repeated runs;
// different kernels differ from each other in final-ulp rounding (the FMA
// contraction in kAvx2, vector reassociation in kPortable), which is why
// accuracy tests compare against a float64 reference rather than across
// kernels.

enum class GemmKernel {
  kAuto = 0,  ///< resolve from EDDE_GEMM_KERNEL / CPU features
  kScalar,
  kPortable,
  kAvx2,
};

/// The kernel GemmRaw will run (never kAuto).
GemmKernel ActiveGemmKernel();

/// "scalar" / "portable" / "avx2".
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

namespace gemm_internal {

/// Register-tile footprint of the micro-kernels. A panels interleave kMR
/// rows per k step, B panels interleave kNR columns per k step.
constexpr int64_t kMR = 6;
constexpr int64_t kNR = 16;
/// Cache blocking: kKC k-steps per packed panel (A block kMC*kKC ~ L2,
/// B sub-panel kKC*kNR ~ L1).
constexpr int64_t kKC = 256;
constexpr int64_t kMC = 132;  // multiple of kMR

/// True when the AVX2/FMA micro-kernel is compiled in and the CPU
/// supports it.
bool Avx2Available();

/// acc[kMR*kNR] = A tile x B tile over kc steps (overwrites acc;
/// accumulation happens in registers). Element (i, kk) of the A tile is
/// ap[i * a_rs + kk * a_ks]; row kk of the B tile is the kNR contiguous
/// floats at bp + kk * b_ks. Packed panels are the strides (1, kMR, kNR);
/// a full tile of an operand that needs no packing is read where it lies.
/// Implemented with AVX2/FMA intrinsics in gemm_avx2.cc; call only when
/// Avx2Available(). `acc` must be 64-byte aligned.
void MicroKernelAvx2(int64_t kc, const float* ap, int64_t a_rs,
                     int64_t a_ks, const float* bp, int64_t b_ks, float* acc);

}  // namespace gemm_internal

}  // namespace edde

#endif  // EDDE_TENSOR_GEMM_H_
