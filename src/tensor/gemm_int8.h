#ifndef EDDE_TENSOR_GEMM_INT8_H_
#define EDDE_TENSOR_GEMM_INT8_H_

#include <cstdint>

#include "tensor/gemm.h"
#include "tensor/quantize.h"

namespace edde {

// ---------------------------------------------------------------------------
// int8×int8→int32 inference GEMM (see DESIGN.md §13)
// ---------------------------------------------------------------------------
//
// Computes C[i,j] = op(A) row i · dequant(W row j) for a float activation
// matrix op(A) (m, k) against a per-channel-quantized weight matrix W
// (n = w.rows output channels, each of depth k = w.cols):
//
//   1. each activation row is dynamically quantized to u8 with a zero
//      point (shared scalar code for every kernel tier),
//   2. the u8·s8 dot products accumulate exactly in int32 (compiler-
//      vectorized portable loop, or AVX2 vpmaddubsw/vpmaddwd with the VNNI
//      drop-in where the CPU has it — selected by the same
//      ActiveGemmKernel() dispatch as the fp32 path and recorded in the
//      manifest as `gemm_int8_kernel`),
//   3. one shared float finalization applies the scales, the zero-point
//      correction via W's precomputed row sums, and the fused epilogue.
//
// Because step 2 is exact integer arithmetic (order-independent) and steps
// 1 and 3 are single shared code paths, the float output is bit-identical
// across *kernels* as well as thread counts — a stronger contract than the
// fp32 GEMM's per-kernel determinism.
//
// `trans_a`: op(A)(i, p) = a[p·lda + i] (absorbed by the quantization
// stage's strided reads; nothing is materialized). `trans_c` stores the
// logical (m, n) result transposed, C[i,j] at c[j·ldc + i] — the im2col
// convolution path writes its (OC, OH·OW) output directly this way.
//
// The epilogue bias always indexes the output channel j: pass
// Bias::kPerCol with !trans_c (dense layout, channels are columns) and
// Bias::kPerRow with trans_c (conv layout, channels are rows).
void GemmInt8(bool trans_a, bool trans_c, int64_t m, int64_t k,
              const float* a, int64_t lda, const QuantizedMatrix& w, float* c,
              int64_t ldc, const GemmEpilogue& epilogue = GemmEpilogue());

namespace gemm_internal {

/// out8[0..7] = Σ_k qa[k]·w_row_r[k] for 8 consecutive weight rows starting
/// at `w` (each `stride` bytes apart, stride a multiple of kInt8KStride and
/// ≥ kpad). Implemented in kernels_avx2.cc; call only when
/// Avx2Available(). `qa` holds kpad bytes, kpad a multiple of
/// kInt8KStride.
void MicroKernelInt8Avx2(int64_t kpad, const uint8_t* qa, const int8_t* w,
                         int64_t stride, int32_t* out8);

/// True when the AVX-512 VNNI micro-kernel is compiled in and the CPU has
/// AVX-512 F/BW/VL/VNNI. VNNI is not a dispatch tier of its own: kAvx2
/// swaps it in at runtime when present (the fp32 path has no VNNI analog,
/// so EDDE_GEMM_KERNEL semantics are unchanged). Exact int32 accumulation
/// keeps the swap invisible in the output bits.
bool Int8VnniAvailable();

/// Same contract as MicroKernelInt8Avx2 (8 weight rows, exact int32 sums),
/// implemented with vpdpbusd over 64-byte chunks. Call only when
/// Int8VnniAvailable().
void MicroKernelInt8Vnni(int64_t kpad, const uint8_t* qa, const int8_t* w,
                         int64_t stride, int32_t* out8);

/// Process-wide switch for the VNNI drop-in (default on; CPU detection
/// decides whether it runs). bench_kernels and the differential tests use
/// it to pin the kAvx2 tier to the vpmaddubsw path and compare the two
/// sub-tiers bit-for-bit.
void SetInt8VnniEnabled(bool enabled);
bool Int8VnniEnabled();

/// 8-wide finalization for a contiguous output row: for j in [0, n8)
/// (n rounded down to 8, returned) computes
///   out[j] = (act_scale·w_scales[j]) · float(acc[j] − act_zero·row_sums[j])
/// [+ bias[j]] [relu] with exactly the scalar FinalizeRow's per-element
/// operations (32-bit correction — caller guarantees it cannot overflow —
/// separate multiplies/add, no FMA contraction), so output bits match the
/// scalar path. Implemented in kernels_avx2.cc; call only when
/// Avx2Available().
int64_t FinalizeRowAvx2(float act_scale, int32_t act_zero,
                        const float* w_scales, const int32_t* row_sums,
                        const int32_t* acc, int64_t n, const float* bias,
                        bool relu, float* out);

}  // namespace gemm_internal

}  // namespace edde

#endif  // EDDE_TENSOR_GEMM_INT8_H_
