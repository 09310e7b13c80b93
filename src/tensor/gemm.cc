#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>

#include "tensor/conv_direct.h"
#include "utils/arena.h"
#include "utils/logging.h"
#include "utils/run_manifest.h"
#include "utils/threadpool.h"

namespace edde {

using gemm_internal::kKC;

namespace {

// The register tile: A panels interleave kMR rows per k step, B panels kNR
// columns. It is the direct conv's widest tile, run by the same code
// (DirectConv<Ops>::GemmTile).
constexpr int64_t kMR = conv_internal::kMaxRows;
constexpr int64_t kNR = 2 * conv_internal::kLanes;
// Rows of A packed per block (kMC*kKC ~ L2); a multiple of kMR.
constexpr int64_t kMC = 132;
static_assert(kMC % kMR == 0, "A blocks hold whole panels");

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// ---------------------------------------------------------------------------
// Kernel dispatch
// ---------------------------------------------------------------------------

GemmKernel ResolveDefaultKernel() {
  GemmKernel kernel =
      gemm_internal::Avx2Available() ? GemmKernel::kAvx2 : GemmKernel::kPortable;
  const char* env = std::getenv("EDDE_GEMM_KERNEL");
  if (env != nullptr && env[0] != '\0') {
    const std::string want(env);
    if (want == "portable") {
      kernel = GemmKernel::kPortable;
    } else if (want == "avx2") {
      if (gemm_internal::Avx2Available()) {
        kernel = GemmKernel::kAvx2;
      } else {
        EDDE_LOG(WARNING) << "EDDE_GEMM_KERNEL=avx2 but the CPU lacks "
                             "AVX2/FMA; using portable";
        kernel = GemmKernel::kPortable;
      }
    } else if (want != "auto") {
      EDDE_LOG(WARNING) << "unknown EDDE_GEMM_KERNEL '" << want
                        << "'; using " << GemmKernelName(kernel);
    }
  }
  return kernel;
}

// kAuto until first use or an explicit SetGemmKernel.
std::atomic<GemmKernel> g_kernel{GemmKernel::kAuto};

}  // namespace

GemmKernel ActiveGemmKernel() {
  GemmKernel kernel = g_kernel.load(std::memory_order_acquire);
  if (kernel != GemmKernel::kAuto) return kernel;
  const GemmKernel resolved = ResolveDefaultKernel();
  GemmKernel expected = GemmKernel::kAuto;
  if (g_kernel.compare_exchange_strong(expected, resolved,
                                       std::memory_order_acq_rel)) {
    ManifestSetFlag("gemm_kernel", GemmKernelName(resolved));
    return resolved;
  }
  return expected;
}

const char* GemmKernelName(GemmKernel kernel) {
  switch (kernel) {
    case GemmKernel::kPortable:
      return "portable";
    case GemmKernel::kAvx2:
      return "avx2";
    case GemmKernel::kAuto:
      return "auto";
  }
  return "unknown";
}

void SetGemmKernel(GemmKernel kernel) {
  if (kernel == GemmKernel::kAvx2 && !gemm_internal::Avx2Available()) {
    EDDE_LOG(WARNING) << "SetGemmKernel(kAvx2) without AVX2/FMA support; "
                         "using portable";
    kernel = GemmKernel::kPortable;
  }
  g_kernel.store(kernel, std::memory_order_release);
  if (kernel != GemmKernel::kAuto) {
    ManifestSetFlag("gemm_kernel", GemmKernelName(kernel));
  }
}

namespace {

// Epilogue as a separate pass, for the degenerate k <= 0 product.
void ApplyEpilogue(int64_t m, int64_t n, float* c, int64_t ldc,
                         const GemmEpilogue& epi) {
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    const float row_bias =
        epi.bias == GemmEpilogue::Bias::kPerRow ? epi.bias_data[i] : 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      float v = crow[j];
      if (epi.bias == GemmEpilogue::Bias::kPerCol) {
        v += epi.bias_data[j];
      } else if (epi.bias == GemmEpilogue::Bias::kPerRow) {
        v += row_bias;
      }
      if (epi.relu) v = v > 0.0f ? v : 0.0f;
      crow[j] = v;
    }
  }
}

// ---------------------------------------------------------------------------
// Packed path
// ---------------------------------------------------------------------------
//
// Layouts (see DESIGN.md §10):
//   A panels: for each group of kMR rows, kc steps of kMR contiguous
//     floats: ap[panel][kk][i] = alpha * opA(row0 + panel*kMR + i, pc + kk),
//     zero-padded past the matrix edge. Folding alpha into the pack costs
//     one multiply per packed value instead of one per product.
//   B panels: for each group of kNR columns, kc steps of kNR contiguous
//     floats: bp[panel][kk][j] = opB(pc + kk, panel*kNR + j), zero-padded.
//
// Both packs absorb the transpose flags, so transposed operands cost a
// strided read during packing instead of a materialized copy. Full tiles
// that need neither alpha nor a transpose absorbed skip packing
// (GemmPacked).

void PackA(bool trans_a, const float* a, int64_t lda, int64_t i0, int64_t pc,
           int64_t mb, int64_t kc, float alpha, float* dst) {
  for (int64_t panel = 0; panel < CeilDiv(mb, kMR); ++panel) {
    const int64_t r0 = panel * kMR;
    const int64_t mr = std::min(kMR, mb - r0);
    float* out = dst + r0 * kc;
    if (!trans_a) {
      for (int64_t kk = 0; kk < kc; ++kk) {
        const float* src = a + (i0 + r0) * lda + pc + kk;
        for (int64_t i = 0; i < mr; ++i) out[i] = alpha * src[i * lda];
        for (int64_t i = mr; i < kMR; ++i) out[i] = 0.0f;
        out += kMR;
      }
    } else {
      // Stored A is (k, m): opA(i, p) = a[p * lda + i]; consecutive i are
      // contiguous in memory, so packing reads kMR-wide runs.
      for (int64_t kk = 0; kk < kc; ++kk) {
        const float* src = a + (pc + kk) * lda + i0 + r0;
        for (int64_t i = 0; i < mr; ++i) out[i] = alpha * src[i];
        for (int64_t i = mr; i < kMR; ++i) out[i] = 0.0f;
        out += kMR;
      }
    }
  }
}

// Packs columns [c_begin, n) of opB; panels start at `dst`.
void PackB(bool trans_b, const float* b, int64_t ldb, int64_t pc, int64_t kc,
           int64_t c_begin, int64_t n, float* dst) {
  for (int64_t c0 = c_begin; c0 < n; c0 += kNR) {
    const int64_t nr = std::min(kNR, n - c0);
    float* out = dst + (c0 - c_begin) * kc;
    if (!trans_b) {
      for (int64_t kk = 0; kk < kc; ++kk) {
        const float* src = b + (pc + kk) * ldb + c0;
        for (int64_t j = 0; j < nr; ++j) out[j] = src[j];
        for (int64_t j = nr; j < kNR; ++j) out[j] = 0.0f;
        out += kNR;
      }
    } else {
      // Stored B is (n, k): opB(p, j) = b[j * ldb + p].
      for (int64_t kk = 0; kk < kc; ++kk) {
        const float* src = b + c0 * ldb + pc + kk;
        for (int64_t j = 0; j < nr; ++j) out[j] = src[j * ldb];
        for (int64_t j = nr; j < kNR; ++j) out[j] = 0.0f;
        out += kNR;
      }
    }
  }
}

// Folds one micro-tile of accumulated products into C. `first` applies the
// beta scaling (beta == 0 is a plain store, so C may start uninitialized);
// `last` applies the fused epilogue. Edge tiles clip to mr x nr — the
// padded lanes of `acc` are simply dropped.
void MergeTile(const float* acc, float* c, int64_t ldc, int64_t mr,
               int64_t nr, float beta, bool first, bool last,
               const GemmEpilogue& epi, int64_t i0, int64_t j0) {
  for (int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    const float* arow = acc + i * kNR;
    if (first) {
      if (beta == 0.0f) {
#pragma omp simd
        for (int64_t j = 0; j < nr; ++j) crow[j] = arow[j];
      } else if (beta == 1.0f) {
#pragma omp simd
        for (int64_t j = 0; j < nr; ++j) crow[j] += arow[j];
      } else {
#pragma omp simd
        for (int64_t j = 0; j < nr; ++j) crow[j] = beta * crow[j] + arow[j];
      }
    } else {
#pragma omp simd
      for (int64_t j = 0; j < nr; ++j) crow[j] += arow[j];
    }
    if (last && !epi.empty()) {
      const float row_bias =
          epi.bias == GemmEpilogue::Bias::kPerRow ? epi.bias_data[i0 + i]
                                                  : 0.0f;
      const float* col_bias = epi.bias == GemmEpilogue::Bias::kPerCol
                                  ? epi.bias_data + j0
                                  : nullptr;
#pragma omp simd
      for (int64_t j = 0; j < nr; ++j) {
        float v = crow[j] + (col_bias != nullptr ? col_bias[j] : row_bias);
        if (epi.relu) v = v > 0.0f ? v : 0.0f;
        crow[j] = v;
      }
    }
  }
}

void GemmPacked(GemmKernel kernel, bool trans_a, bool trans_b, int64_t m,
                int64_t n, int64_t k, float alpha, const float* a,
                int64_t lda, const float* b, int64_t ldb, float beta,
                float* c, int64_t ldc, const GemmEpilogue& epi) {
  const auto tile = kernel == GemmKernel::kAvx2
                        ? conv_internal::GemmTileAvx2
                        : conv_internal::GemmTilePortable;
  // The micro-kernel reads a full tile in place when packing would only
  // copy it: A when alpha == 1 (packing folds alpha in), B when it is not
  // transposed (a transposed B row is kNR strided floats). Edge tiles are
  // packed for their zero padding. A tile whose k steps are rows of the
  // stored matrix (B, transposed A) is read in place only within one k
  // block: past kKC rows at a stride of ld floats fight over a few cache
  // sets, and the packed strip is the faster read (512^3 stays on B
  // panels). A non-transposed A tile is kMR rows running along k and is
  // read in place at any depth. Packed or not, each tile sees the same
  // values in the same order, so results do not depend on which path ran.
  const bool one_block = k <= kKC;
  const bool a_direct = alpha == 1.0f && (!trans_a || one_block);
  const int64_t n_direct = one_block && !trans_b ? n / kNR * kNR : 0;
  const int64_t a_rs = trans_a ? 1 : lda;
  const int64_t a_ks = trans_a ? lda : 1;
  // One shared B panel per k block, packed serially by the caller; A blocks
  // are packed per worker chunk. C rows are written by exactly one chunk
  // and the k blocks advance in the same serial order for every chunking,
  // so results are bit-identical for any thread count and grain.
  // Panels are sized by the block they hold, not by the blocking caps: a
  // shallow or short operand (conv's dCols GEMM has k = OC) must not grow
  // every thread's arena to full kKC/kMC panels.
  ArenaScope scope;
  float* bpack = scope.AllocFloats(std::min(k, kKC) *
                                   CeilDiv(n - n_direct, kNR) * kNR);
  const int64_t grain = std::max(kMC, RowGrain(n * k, 1 << 18));
  for (int64_t pc = 0; pc < k; pc += kKC) {
    const int64_t kc = std::min(kKC, k - pc);
    PackB(trans_b, b, ldb, pc, kc, n_direct, n, bpack);
    const bool first = pc == 0;
    const bool last = pc + kc >= k;
    ParallelFor(0, m, grain, [&](int64_t r0, int64_t r1) {
      ArenaScope worker_scope;
      const int64_t rows = a_direct ? kMR : std::min(kMC, r1 - r0);
      float* apack = worker_scope.AllocFloats(CeilDiv(rows, kMR) * kMR * kc);
      alignas(64) float acc[kMR * kNR];
      for (int64_t ic = r0; ic < r1; ic += kMC) {
        const int64_t mb = std::min(kMC, r1 - ic);
        const int64_t m_direct = a_direct ? mb / kMR * kMR : 0;
        PackA(trans_a, a, lda, ic + m_direct, pc, mb - m_direct, kc, alpha,
              apack);
        for (int64_t jr = 0; jr < n; jr += kNR) {
          const int64_t nr = std::min(kNR, n - jr);
          const bool b_in_place = jr < n_direct;
          const float* bsub = b_in_place ? b + pc * ldb + jr
                                         : bpack + (jr - n_direct) * kc;
          const int64_t b_ks = b_in_place ? ldb : kNR;
          for (int64_t ir = 0; ir < mb; ir += kMR) {
            const int64_t mr = std::min(kMR, mb - ir);
            const bool a_in_place = ir < m_direct;
            const float* asub =
                a_in_place ? a + (ic + ir) * a_rs + pc * a_ks
                           : apack + (ir - m_direct) * kc;
            const int64_t rs = a_in_place ? a_rs : 1;
            const int64_t ks = a_in_place ? a_ks : kMR;
            tile(kc, asub, rs, ks, bsub, b_ks, acc);
            MergeTile(acc, c + (ic + ir) * ldc + jr, ldc, mr, nr, beta,
                      first, last, epi, ic + ir, jr);
          }
        }
      }
    });
  }
}

}  // namespace

void GemmRaw(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
             float alpha, const float* a, int64_t lda, const float* b,
             int64_t ldb, float beta, float* c, int64_t ldc,
             const GemmEpilogue& epilogue) {
  if (m <= 0 || n <= 0) return;
  if (epilogue.bias != GemmEpilogue::Bias::kNone) {
    EDDE_CHECK(epilogue.bias_data != nullptr) << "bias epilogue without data";
  }
  if (k <= 0) {
    // Degenerate inner dimension: C = beta * C plus the epilogue.
    for (int64_t i = 0; i < m; ++i) {
      float* crow = c + i * ldc;
      for (int64_t j = 0; j < n; ++j) {
        crow[j] = beta == 0.0f ? 0.0f : beta * crow[j];
      }
    }
    ApplyEpilogue(m, n, c, ldc, epilogue);
    return;
  }
  GemmPacked(ActiveGemmKernel(), trans_a, trans_b, m, n, k, alpha, a, lda, b,
             ldb, beta, c, ldc, epilogue);
}

}  // namespace edde
