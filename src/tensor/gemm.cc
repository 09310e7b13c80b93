#include "tensor/gemm.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>

#include "tensor/conv_direct.h"
#include "utils/arena.h"
#include "utils/logging.h"
#include "utils/run_manifest.h"

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
// strided read during packing instead of a materialized copy. Operands
// that need neither alpha nor a transpose absorbed skip packing
// (GemmPacked), and a PackedB holds B's panels for good.

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

// Folds one micro-tile of accumulated products, `acc` with rows acc_ld
// floats apart, into C. `first` applies the beta scaling (beta == 0 is a
// plain store, so C may start uninitialized); `last` applies the fused
// epilogue. Edge tiles clip to mr x nr — the padded lanes of `acc` are
// simply dropped.
void MergeTile(const float* acc, int64_t acc_ld, float* c, int64_t ldc,
               int64_t mr, int64_t nr, float beta, bool first, bool last,
               const GemmEpilogue& epi, int64_t i0, int64_t j0) {
  for (int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    const float* arow = acc + i * acc_ld;
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

// op(B) as GemmPacked reads it: the stored matrix, whose panels it packs
// per k block, or the panels of a PackedB (`panels` non-null; block pc
// starts at panels + pc·⌈n/kNR⌉·kNR).
struct BOperand {
  bool trans = false;
  const float* data = nullptr;
  int64_t ld = 0;
  const float* panels = nullptr;
};

void GemmPacked(GemmKernel kernel, bool trans_a, int64_t m, int64_t n,
                int64_t k, float alpha, const float* a, int64_t lda,
                const BOperand& b, float beta, float* c, int64_t ldc,
                const GemmEpilogue& epi) {
  const auto tile = kernel == GemmKernel::kAvx2
                        ? conv_internal::GemmTileAvx2
                        : conv_internal::GemmTilePortable;
  // The micro-kernel reads A and B in place when packing would only copy
  // them: A when alpha == 1 (packing folds alpha in), B when it is neither
  // transposed (a transposed B row is kNR strided floats) nor an edge panel
  // (packed for its zero padding). An operand whose k steps are rows of the
  // stored matrix (B, transposed A) is read in place only within one k
  // block: past kKC rows at a stride of ld floats fight over a few cache
  // sets, and the packed strip is the faster read (512^3 stays on B
  // panels). A non-transposed A is kMR rows running along k and is read in
  // place at any depth. A block's last rows, fewer than kMR, run as a tile
  // of their own height, several B panels wide when it is one or two rows
  // (kGemmPanels). Packed or not, and whatever the tile, each output sees
  // the same values in the same order, so results do not depend on which
  // path ran.
  const bool one_block = k <= kKC;
  const bool a_direct = alpha == 1.0f && (!trans_a || one_block);
  const int64_t n_direct =
      b.panels == nullptr && one_block && !b.trans ? n / kNR * kNR : 0;
  const int64_t n_pad = CeilDiv(n, kNR) * kNR;
  const int64_t a_rs = trans_a ? 1 : lda;
  const int64_t a_ks = trans_a ? lda : 1;
  // Per k block, B is packed once and A once per kMC-row block, both into
  // this call's arena. Panels are sized by the block they hold, not by the
  // blocking caps: a shallow or short operand (a Dense layer over a few
  // inputs) must not grow the arena to full kKC/kMC panels.
  ArenaScope scope;
  float* bpack = b.panels != nullptr
                     ? nullptr
                     : scope.AllocFloats(std::min(k, kKC) *
                                         CeilDiv(n - n_direct, kNR) * kNR);
  float* apack = a_direct ? nullptr
                          : scope.AllocFloats(CeilDiv(std::min(kMC, m), kMR) *
                                              kMR * std::min(k, kKC));
  alignas(64) float acc[kMR * kNR];
  for (int64_t pc = 0; pc < k; pc += kKC) {
    const int64_t kc = std::min(kKC, k - pc);
    const float* bpanels = bpack;
    if (b.panels != nullptr) {
      bpanels = b.panels + pc * n_pad;
    } else {
      PackB(b.trans, b.data, b.ld, pc, kc, n_direct, n, bpack);
    }
    const bool first = pc == 0;
    const bool last = pc + kc >= k;
    // The rows [ir, ir + mr) of the block at ic times the B panels
    // [jr, jr + panels·kNR), which lie all in place or all packed.
    const auto run = [&](int64_t ic, int64_t ir, int64_t mr, int64_t jr,
                         int64_t panels) {
      const float* asub =
          a_direct ? a + (ic + ir) * a_rs + pc * a_ks : apack + ir * kc;
      const bool b_in_place = jr < n_direct;
      const float* bsub = b_in_place ? b.data + pc * b.ld + jr
                                     : bpanels + (jr - n_direct) * kc;
      tile(mr, panels, kc, asub, a_direct ? a_rs : 1, a_direct ? a_ks : kMR,
           bsub, b_in_place ? b.ld : kNR, b_in_place ? kNR : kNR * kc, acc);
      MergeTile(acc, panels * kNR, c + (ic + ir) * ldc + jr, ldc, mr,
                std::min(panels * kNR, n - jr), beta, first, last, epi,
                ic + ir, jr);
    };
    for (int64_t ic = 0; ic < m; ic += kMC) {
      const int64_t mb = std::min(kMC, m - ic);
      if (!a_direct) PackA(trans_a, a, lda, ic, pc, mb, kc, alpha, apack);
      const int64_t m_full = mb / kMR * kMR;
      for (int64_t jr = 0; jr < n; jr += kNR) {
        for (int64_t ir = 0; ir < m_full; ir += kMR) run(ic, ir, kMR, jr, 1);
      }
      if (m_full == mb) continue;
      const int64_t mr = mb - m_full;
      for (int64_t jr = 0; jr < n;) {
        const int64_t run_end = jr < n_direct ? n_direct : n;
        const int64_t panels = std::min(conv_internal::kGemmPanels[mr],
                                        CeilDiv(run_end - jr, kNR));
        run(ic, m_full, mr, jr, panels);
        jr += panels * kNR;
      }
    }
  }
}

// C = beta * C plus the epilogue when the product is empty (k <= 0);
// returns whether there was nothing more to do.
bool GemmDegenerate(int64_t m, int64_t n, int64_t k, float beta, float* c,
                    int64_t ldc, const GemmEpilogue& epilogue) {
  if (m <= 0 || n <= 0) return true;
  if (epilogue.bias != GemmEpilogue::Bias::kNone) {
    EDDE_CHECK(epilogue.bias_data != nullptr) << "bias epilogue without data";
  }
  if (k > 0) return false;
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * ldc;
    for (int64_t j = 0; j < n; ++j) {
      crow[j] = beta == 0.0f ? 0.0f : beta * crow[j];
    }
  }
  ApplyEpilogue(m, n, c, ldc, epilogue);
  return true;
}

}  // namespace

void GemmRaw(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
             float alpha, const float* a, int64_t lda, const float* b,
             int64_t ldb, float beta, float* c, int64_t ldc,
             const GemmEpilogue& epilogue) {
  if (GemmDegenerate(m, n, k, beta, c, ldc, epilogue)) return;
  GemmPacked(ActiveGemmKernel(), trans_a, m, n, k, alpha, a, lda,
             BOperand{trans_b, b, ldb, nullptr}, beta, c, ldc, epilogue);
}

PackedB::PackedB(bool trans_b, int64_t k, int64_t n, const float* b,
                 int64_t ldb)
    : k_(k), n_(n) {
  EDDE_CHECK(k >= 0 && n >= 0) << "negative PackedB extent";
  const int64_t n_pad = CeilDiv(n, kNR) * kNR;
  panels_.resize(static_cast<size_t>(k * n_pad));
  for (int64_t pc = 0; pc < k; pc += kKC) {
    PackB(trans_b, b, ldb, pc, std::min(kKC, k - pc), 0, n,
          panels_.data() + pc * n_pad);
  }
}

void GemmRaw(bool trans_a, int64_t m, float alpha, const float* a,
             int64_t lda, const PackedB& b, float beta, float* c, int64_t ldc,
             const GemmEpilogue& epilogue) {
  if (GemmDegenerate(m, b.n_, b.k_, beta, c, ldc, epilogue)) return;
  GemmPacked(ActiveGemmKernel(), trans_a, m, b.n_, b.k_, alpha, a, lda,
             BOperand{false, nullptr, 0, b.panels_.data()}, beta, c, ldc,
             epilogue);
}

}  // namespace edde
