#include "tensor/gemm_int8.h"

#include <algorithm>
#include <atomic>

#include "utils/arena.h"
#include "utils/logging.h"
#include "utils/run_manifest.h"
#include "utils/threadpool.h"

namespace edde {

namespace {

/// Records which int8 kernel tier actually ran (including the VNNI
/// drop-in), once per tier change, so the run manifest carries
/// `gemm_int8_kernel` next to `gemm_kernel`.
void RecordInt8Kernel(GemmKernel kernel, bool vnni) {
  static std::atomic<int> recorded{-1};
  const int id = static_cast<int>(kernel) * 2 + (vnni ? 1 : 0);
  int prev = recorded.load(std::memory_order_relaxed);
  if (prev == id) return;
  if (recorded.compare_exchange_strong(prev, id, std::memory_order_relaxed)) {
    ManifestSetFlag("gemm_int8_kernel",
                    vnni ? "avx2+vnni" : GemmKernelName(kernel));
  }
}

/// One activation row against every weight row, exact int32 accumulation,
/// shaped for the auto-vectorizer (u8/s8 widening multiplies reduce well
/// under -march=x86-64-v3). Any tier may compute any row: the result is
/// integer-exact, so tiers are interchangeable per row without breaking
/// cross-kernel bit-identity.
void ComputeRowPortable(const uint8_t* qa, const QuantizedMatrix& w,
                        int32_t* acc) {
  const int64_t k = w.cols;
  for (int64_t j = 0; j < w.rows; ++j) {
    const int8_t* wr = w.row(j);
    int32_t sum = 0;
#pragma omp simd reduction(+ : sum)
    for (int64_t p = 0; p < k; ++p) {
      sum += static_cast<int32_t>(qa[p]) * static_cast<int32_t>(wr[p]);
    }
    acc[j] = sum;
  }
}

/// Activation rows processed per weight pass by the SIMD tiers. At the
/// depths the layers use, one activation row streams the whole weight
/// matrix out of L2 and the micro-kernels stall on bandwidth; revisiting
/// each 8-row weight block for a tile of activation rows while it sits in
/// L1 divides that traffic by the tile height. Row results are unchanged
/// — only the visit order differs, and every row's accumulation is exact.
constexpr int64_t kInt8RowTile = 16;

/// A tile of activation rows against every weight row through the 8-wide
/// micro-kernels (vpmaddubsw, or the VNNI drop-in when selected). `qa`
/// holds `rows` quantized activation rows `qa_stride` bytes apart; `acc`
/// receives `rows` int32 result rows `acc_stride` entries apart.
void ComputeTileAvx2(const uint8_t* qa, int64_t rows, int64_t qa_stride,
                     const QuantizedMatrix& w, int32_t* acc,
                     int64_t acc_stride, bool use_vnni) {
  const int64_t kpad = w.stride;
  int64_t j = 0;
  for (; j + 8 <= w.rows; j += 8) {
    const int8_t* wblock = w.row(j);
    if (use_vnni) {
      for (int64_t r = 0; r < rows; ++r) {
        gemm_internal::MicroKernelInt8Vnni(kpad, qa + r * qa_stride, wblock,
                                           w.stride, acc + r * acc_stride + j);
      }
    } else {
      for (int64_t r = 0; r < rows; ++r) {
        gemm_internal::MicroKernelInt8Avx2(kpad, qa + r * qa_stride, wblock,
                                           w.stride, acc + r * acc_stride + j);
      }
    }
  }
  // Tail weight rows (< 8) fall back to the scalar dot — still exact, so
  // the boundary between the two paths never shows in the output.
  for (; j < w.rows; ++j) {
    const int8_t* wr = w.row(j);
    for (int64_t r = 0; r < rows; ++r) {
      const uint8_t* qr = qa + r * qa_stride;
      int32_t sum = 0;
      for (int64_t p = 0; p < w.cols; ++p) {
        sum += static_cast<int32_t>(qr[p]) * static_cast<int32_t>(wr[p]);
      }
      acc[r * acc_stride + j] = sum;
    }
  }
}

/// The single finalization path every kernel tier funnels through:
/// float v = (s_a·s_w) · (acc − z·rowsum) [+ bias] [relu]. The zero-point
/// correction is done in int64 (the int32 product z·rowsum can overflow
/// the subtraction for deep reductions) and the float expression has one
/// fixed evaluation order, which is the other leg of the cross-kernel
/// bit-identity contract.
/// Depth up to which the zero-point correction fits int32: |acc| and
/// |z·rowsum| are each ≤ 255·63·k, so the subtraction stays inside int32
/// for k ≤ 2³¹/(2·255·63) ≈ 66830. Above it (or for transposed stores)
/// the scalar int64 path below covers everything.
constexpr int64_t kInt8FinalizeInt32Depth = 65536;

void FinalizeRow(const QuantizedRowParams& params, const QuantizedMatrix& w,
                 const int32_t* acc, bool trans_c, float* c, int64_t i,
                 int64_t ldc, const GemmEpilogue& epi) {
  const float* bias =
      epi.bias != GemmEpilogue::Bias::kNone ? epi.bias_data : nullptr;
  int64_t j0 = 0;
  if (!trans_c && w.cols <= kInt8FinalizeInt32Depth &&
      gemm_internal::Int8Avx2Available()) {
    // Elementwise-identical 8-wide version of the loop below; it runs for
    // every kernel tier alike, so tiers still agree bit-for-bit.
    j0 = gemm_internal::FinalizeRowAvx2(params.scale, params.zero,
                                        w.scales.data(), w.row_sums.data(),
                                        acc, w.rows, bias, epi.relu,
                                        c + i * ldc);
  }
  for (int64_t j = j0; j < w.rows; ++j) {
    const int64_t corrected =
        static_cast<int64_t>(acc[j]) -
        static_cast<int64_t>(params.zero) *
            static_cast<int64_t>(w.row_sums[static_cast<size_t>(j)]);
    float v = params.scale * w.scales[static_cast<size_t>(j)] *
              static_cast<float>(corrected);
    if (bias != nullptr) v += bias[j];
    if (epi.relu) v = v > 0.0f ? v : 0.0f;
    c[trans_c ? j * ldc + i : i * ldc + j] = v;
  }
}

}  // namespace

namespace gemm_internal {

namespace {

std::atomic<bool> g_int8_vnni_enabled{true};

}  // namespace

void SetInt8VnniEnabled(bool enabled) {
  g_int8_vnni_enabled.store(enabled, std::memory_order_relaxed);
}

bool Int8VnniEnabled() {
  return g_int8_vnni_enabled.load(std::memory_order_relaxed);
}

}  // namespace gemm_internal

void GemmInt8(bool trans_a, bool trans_c, int64_t m, int64_t k,
              const float* a, int64_t lda, const QuantizedMatrix& w, float* c,
              int64_t ldc, const GemmEpilogue& epilogue) {
  if (m <= 0 || w.rows <= 0) return;
  EDDE_CHECK_EQ(w.cols, k) << "quantized weight depth mismatch";
  EDDE_CHECK_GT(k, 0);
  EDDE_CHECK_LE(k, kInt8MaxDepth)
      << "reduction too deep for exact int32 accumulation";
  if (epilogue.bias != GemmEpilogue::Bias::kNone) {
    EDDE_CHECK(epilogue.bias_data != nullptr) << "bias epilogue without data";
    // The bias always indexes the output channel j; the layout flag just
    // names where channels land in the stored C.
    EDDE_CHECK(epilogue.bias == (trans_c ? GemmEpilogue::Bias::kPerRow
                                         : GemmEpilogue::Bias::kPerCol))
        << "int8 epilogue bias must broadcast over output channels";
  }

  GemmKernel kernel = ActiveGemmKernel();
  if (kernel == GemmKernel::kAvx2 && !gemm_internal::Int8Avx2Available()) {
    kernel = GemmKernel::kPortable;
  }
  const bool use_vnni = kernel == GemmKernel::kAvx2 &&
                        gemm_internal::Int8VnniAvailable() &&
                        gemm_internal::Int8VnniEnabled();
  RecordInt8Kernel(kernel, use_vnni);

  const int64_t n = w.rows;
  const int64_t kpad = w.stride;
  // Each worker owns a disjoint set of activation rows; quantization,
  // accumulation and finalization are all row-local, so any partition
  // produces the same bits. The grain is rounded up to the row tile so
  // the SIMD tiers keep full tiles even when the work estimate is small.
  int64_t grain = RowGrain(n * k, 1 << 18);
  grain = (grain + kInt8RowTile - 1) / kInt8RowTile * kInt8RowTile;
  ParallelFor(0, m, grain, [&](int64_t i0, int64_t i1) {
    ArenaScope scope;
    uint8_t* qa = static_cast<uint8_t*>(
        scope.Alloc(static_cast<size_t>(kInt8RowTile * kpad)));
    int32_t* acc = static_cast<int32_t*>(
        scope.Alloc(static_cast<size_t>(kInt8RowTile * n) * 4));
    QuantizedRowParams params[kInt8RowTile];
    for (int64_t t = i0; t < i1; t += kInt8RowTile) {
      const int64_t rows = std::min<int64_t>(kInt8RowTile, i1 - t);
      for (int64_t r = 0; r < rows; ++r) {
        const int64_t i = t + r;
        const float* src = trans_a ? a + i : a + i * lda;
        params[r] =
            QuantizeActivationRow(src, k, trans_a ? lda : 1, qa + r * kpad,
                                  kpad);
      }
      if (kernel == GemmKernel::kAvx2) {
        ComputeTileAvx2(qa, rows, kpad, w, acc, n, use_vnni);
      } else {
        for (int64_t r = 0; r < rows; ++r) {
          ComputeRowPortable(qa + r * kpad, w, acc + r * n);
        }
      }
      for (int64_t r = 0; r < rows; ++r) {
        FinalizeRow(params[r], w, acc + r * n, trans_c, c, t + r, ldc,
                    epilogue);
      }
    }
  });
}

}  // namespace edde
