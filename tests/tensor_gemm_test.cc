// Exhaustive correctness coverage of the packed GEMM layer: every kernel
// (portable SIMD, AVX2 when available) against a float64
// naive reference across odd/tail shapes and transpose combinations, plus
// epilogue fusion, NaN propagation and bit-determinism guarantees.

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "utils/threadpool.h"

namespace edde {
namespace {

std::vector<GemmKernel> AvailableKernels() {
  std::vector<GemmKernel> kernels = {GemmKernel::kPortable};
  if (gemm_internal::Avx2Available()) kernels.push_back(GemmKernel::kAvx2);
  return kernels;
}

// Restores automatic dispatch when a test that forces a kernel exits.
struct KernelGuard {
  ~KernelGuard() { SetGemmKernel(GemmKernel::kAuto); }
};

// Stored-layout matrices for op(A) (m, k) and op(B) (k, n).
Tensor MakeOperand(bool transposed, int64_t rows, int64_t cols, Rng* rng) {
  Tensor t(transposed ? Shape{cols, rows} : Shape{rows, cols});
  t.FillUniform(rng, -1.0f, 1.0f);
  return t;
}

float OperandAt(const Tensor& t, bool transposed, int64_t i, int64_t j) {
  return transposed ? t.at(j, i) : t.at(i, j);
}

// Float64 reference: exact accumulation order is irrelevant at this
// precision relative to the float32 kernels under test.
std::vector<double> NaiveGemm(bool trans_a, bool trans_b, int64_t m,
                              int64_t n, int64_t k, float alpha,
                              const Tensor& a, const Tensor& b, float beta,
                              const Tensor& c_in) {
  std::vector<double> out(static_cast<size_t>(m * n));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(OperandAt(a, trans_a, i, p)) *
               OperandAt(b, trans_b, p, j);
      }
      out[static_cast<size_t>(i * n + j)] =
          alpha * acc + static_cast<double>(beta) * c_in.at(i, j);
    }
  }
  return out;
}

TEST(GemmSweepTest, OddShapesAllKernelsAllTransposes) {
  KernelGuard guard;
  const int64_t sizes[] = {1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 33};
  Rng rng(1234);
  for (GemmKernel kernel : AvailableKernels()) {
    SetGemmKernel(kernel);
    for (int64_t m : sizes) {
      for (int64_t n : sizes) {
        for (int64_t k : sizes) {
          for (int ta = 0; ta < 2; ++ta) {
            for (int tb = 0; tb < 2; ++tb) {
              const Tensor a = MakeOperand(ta != 0, m, k, &rng);
              const Tensor b = MakeOperand(tb != 0, k, n, &rng);
              Tensor c(Shape{m, n});
              c.FillUniform(&rng, -1.0f, 1.0f);
              const std::vector<double> want =
                  NaiveGemm(ta != 0, tb != 0, m, n, k, 1.0f, a, b, 0.0f, c);
              Gemm(ta != 0, tb != 0, 1.0f, a, b, 0.0f, &c);
              for (int64_t i = 0; i < m * n; ++i) {
                ASSERT_NEAR(c.data()[i], want[static_cast<size_t>(i)], 1e-4)
                    << GemmKernelName(kernel) << " m=" << m << " n=" << n
                    << " k=" << k << " ta=" << ta << " tb=" << tb
                    << " at " << i;
              }
            }
          }
        }
      }
    }
  }
}

TEST(GemmSweepTest, AlphaBetaAllKernels) {
  KernelGuard guard;
  Rng rng(77);
  const float alphas[] = {1.0f, -0.5f, 2.25f};
  const float betas[] = {0.0f, 1.0f, -1.5f};
  for (GemmKernel kernel : AvailableKernels()) {
    SetGemmKernel(kernel);
    for (float alpha : alphas) {
      for (float beta : betas) {
        const int64_t m = 19, n = 23, k = 31;
        const Tensor a = MakeOperand(false, m, k, &rng);
        const Tensor b = MakeOperand(false, k, n, &rng);
        Tensor c(Shape{m, n});
        c.FillUniform(&rng, -1.0f, 1.0f);
        const std::vector<double> want =
            NaiveGemm(false, false, m, n, k, alpha, a, b, beta, c);
        Gemm(false, false, alpha, a, b, beta, &c);
        for (int64_t i = 0; i < m * n; ++i) {
          ASSERT_NEAR(c.data()[i], want[static_cast<size_t>(i)], 1e-4)
              << GemmKernelName(kernel) << " alpha=" << alpha
              << " beta=" << beta << " at " << i;
        }
      }
    }
  }
}

TEST(GemmEpilogueTest, BiasAndReluAllKernels) {
  KernelGuard guard;
  Rng rng(99);
  const int64_t m = 17, n = 21, k = 13;
  for (GemmKernel kernel : AvailableKernels()) {
    SetGemmKernel(kernel);
    for (int mode = 0; mode < 3; ++mode) {  // per-col, per-row, relu-only
      const Tensor a = MakeOperand(false, m, k, &rng);
      const Tensor b = MakeOperand(false, k, n, &rng);
      Tensor bias(Shape{mode == 1 ? m : n});
      bias.FillUniform(&rng, -1.0f, 1.0f);
      GemmEpilogue epi;
      epi.relu = true;
      if (mode == 0) {
        epi.bias = GemmEpilogue::Bias::kPerCol;
        epi.bias_data = bias.data();
      } else if (mode == 1) {
        epi.bias = GemmEpilogue::Bias::kPerRow;
        epi.bias_data = bias.data();
      }
      Tensor c(Shape{m, n});
      Gemm(false, false, 1.0f, a, b, 0.0f, &c, epi);
      const Tensor zero(Shape{m, n}, 0.0f);
      const std::vector<double> plain =
          NaiveGemm(false, false, m, n, k, 1.0f, a, b, 0.0f, zero);
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
          double want = plain[static_cast<size_t>(i * n + j)];
          if (mode == 0) want += bias.at(j);
          if (mode == 1) want += bias.at(i);
          if (want < 0.0) want = 0.0;
          ASSERT_NEAR(c.at(i, j), want, 1e-4)
              << GemmKernelName(kernel) << " mode=" << mode << " (" << i
              << "," << j << ")";
        }
      }
    }
  }
}

// A zero in A must not short-circuit the k-loop: 0 * NaN = NaN has to reach
// C on every kernel (a zero-skip in the k-loop would silently drop NaN/Inf
// coming from B).
TEST(GemmNanTest, ZeroTimesNanPropagatesAllKernels) {
  KernelGuard guard;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (GemmKernel kernel : AvailableKernels()) {
    SetGemmKernel(kernel);
    Tensor a(Shape{2, 3}, {0.0f, 1.0f, 2.0f, 0.0f, 0.0f, 0.0f});
    Tensor b(Shape{3, 2}, {nan, 1.0f, 1.0f, 1.0f, 1.0f, 1.0f});
    Tensor c(Shape{2, 2});
    Gemm(false, false, 1.0f, a, b, 0.0f, &c);
    // Row 0 multiplies the NaN by a[0][0] == 0; row 1 is all zeros.
    EXPECT_TRUE(std::isnan(c.at(0, 0))) << GemmKernelName(kernel);
    EXPECT_TRUE(std::isnan(c.at(1, 0))) << GemmKernelName(kernel);
    EXPECT_FLOAT_EQ(c.at(0, 1), 3.0f) << GemmKernelName(kernel);
  }
}

// For a fixed kernel, results are bit-identical for every thread count and
// across repeated calls — the row partition and per-row accumulation order
// do not depend on the pool size.
TEST(GemmDeterminismTest, BitIdenticalAcrossThreadCounts) {
  KernelGuard guard;
  Rng rng(2024);
  const int64_t m = 200, n = 96, k = 300;
  const Tensor a = MakeOperand(false, m, k, &rng);
  const Tensor b = MakeOperand(false, k, n, &rng);
  for (GemmKernel kernel : AvailableKernels()) {
    SetGemmKernel(kernel);
    Tensor c1(Shape{m, n}), c4(Shape{m, n}), c4b(Shape{m, n});
    SetNumThreads(1);
    Gemm(false, false, 1.0f, a, b, 0.0f, &c1);
    SetNumThreads(4);
    Gemm(false, false, 1.0f, a, b, 0.0f, &c4);
    Gemm(false, false, 1.0f, a, b, 0.0f, &c4b);
    SetNumThreads(0);
    EXPECT_EQ(0, std::memcmp(c1.data(), c4.data(),
                             sizeof(float) * static_cast<size_t>(m * n)))
        << GemmKernelName(kernel) << ": 1-thread vs 4-thread mismatch";
    EXPECT_EQ(0, std::memcmp(c4.data(), c4b.data(),
                             sizeof(float) * static_cast<size_t>(m * n)))
        << GemmKernelName(kernel) << ": repeated call mismatch";
  }
}

// ---------------------------------------------------------------------------
// Bit-exact data paths: the micro-kernel reads full tiles of an operand in
// place and packs the rest (edge tiles, alpha != 1, transposed B, k > kKC).
// Every path feeds each output element the same products in the same
// order, so for one kernel a result must not depend on how its operands are
// stored: not on their leading dimensions or alignment, not on which of
// them is transposed.
// ---------------------------------------------------------------------------

// A stored matrix copied into a buffer whose rows are 3 floats wider and
// which starts one float past a 64-byte boundary; the padding is NaN so an
// over-read that reaches a result shows up in it.
struct WideMatrix {
  std::vector<float> buf;
  int64_t ld = 0;
  float* data() { return buf.data() + 1; }

  WideMatrix(const float* src, int64_t rows, int64_t cols)
      : buf(static_cast<size_t>(rows * (cols + 3) + 1),
            std::numeric_limits<float>::quiet_NaN()),
        ld(cols + 3) {
    for (int64_t i = 0; i < rows; ++i) {
      std::memcpy(data() + i * ld, src + i * cols,
                  sizeof(float) * static_cast<size_t>(cols));
    }
  }
};

struct ScaleCase {
  float alpha, beta;
  GemmEpilogue::Bias bias;
  bool relu;
};

TEST(GemmBitExactTest, StorageDoesNotChangeABit) {
  KernelGuard guard;
  const int64_t mn_sizes[] = {1, 5, 6, 7, 16, 17, 133};
  const int64_t k_sizes[] = {1, 4, 255, 256, 257};
  const ScaleCase cases[] = {
      {1.0f, 0.0f, GemmEpilogue::Bias::kNone, false},
      {1.0f, 1.0f, GemmEpilogue::Bias::kPerRow, true},
      {1.0f, 0.3f, GemmEpilogue::Bias::kPerCol, false},
      {0.5f, 0.0f, GemmEpilogue::Bias::kNone, true},
      {0.5f, 1.0f, GemmEpilogue::Bias::kPerCol, true},
      {0.5f, 0.3f, GemmEpilogue::Bias::kPerRow, false},
  };
  const double u = std::ldexp(1.0, -24);
  Rng rng(4321);
  for (int64_t m : mn_sizes) {
    for (int64_t n : mn_sizes) {
      for (int64_t k : k_sizes) {
        // op(A) and op(B) in both storage orders, a starting C and biases.
        const Tensor a = MakeOperand(false, m, k, &rng);
        const Tensor b = MakeOperand(false, k, n, &rng);
        Tensor a_t(Shape{k, m}), b_t(Shape{n, k});
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t p = 0; p < k; ++p) a_t.at(p, i) = a.at(i, p);
        }
        for (int64_t p = 0; p < k; ++p) {
          for (int64_t j = 0; j < n; ++j) b_t.at(j, p) = b.at(p, j);
        }
        const Tensor c0 = MakeOperand(false, m, n, &rng);
        const Tensor row_bias = MakeOperand(false, 1, m, &rng);
        const Tensor col_bias = MakeOperand(false, 1, n, &rng);
        // Float64 product and the magnitude of its terms, for the bound.
        std::vector<double> prod(static_cast<size_t>(m * n));
        std::vector<double> mag(prod.size());
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < n; ++j) {
            double acc = 0.0, abs_acc = 0.0;
            for (int64_t p = 0; p < k; ++p) {
              const double t = static_cast<double>(a.at(i, p)) * b.at(p, j);
              acc += t;
              abs_acc += std::fabs(t);
            }
            prod[static_cast<size_t>(i * n + j)] = acc;
            mag[static_cast<size_t>(i * n + j)] = abs_acc;
          }
        }
        for (GemmKernel kernel : AvailableKernels()) {
          SetGemmKernel(kernel);
          for (const ScaleCase& sc : cases) {
            SCOPED_TRACE(::testing::Message()
                         << GemmKernelName(kernel) << " m=" << m << " n=" << n
                         << " k=" << k << " alpha=" << sc.alpha
                         << " beta=" << sc.beta << " bias="
                         << static_cast<int>(sc.bias) << " relu=" << sc.relu);
            GemmEpilogue epi;
            epi.bias = sc.bias;
            epi.bias_data = sc.bias == GemmEpilogue::Bias::kPerRow
                                ? row_bias.data()
                                : sc.bias == GemmEpilogue::Bias::kPerCol
                                      ? col_bias.data()
                                      : nullptr;
            epi.relu = sc.relu;
            std::vector<float> first;
            for (int ta = 0; ta < 2; ++ta) {
              for (int tb = 0; tb < 2; ++tb) {
                const Tensor& sa = ta != 0 ? a_t : a;
                const Tensor& sb = tb != 0 ? b_t : b;
                const int64_t lda = sa.shape().dim(1);
                const int64_t ldb = sb.shape().dim(1);
                std::vector<float> c(c0.data(), c0.data() + m * n);
                GemmRaw(ta != 0, tb != 0, m, n, k, sc.alpha, sa.data(), lda,
                        sb.data(), ldb, sc.beta, c.data(), n, epi);

                // B prepacked once, as a layer packed for eval holds it.
                const PackedB packed(tb != 0, k, n, sb.data(), ldb);
                std::vector<float> c_packed(c0.data(), c0.data() + m * n);
                GemmRaw(ta != 0, m, sc.alpha, sa.data(), lda, packed, sc.beta,
                        c_packed.data(), n, epi);
                ASSERT_EQ(0, std::memcmp(c_packed.data(), c.data(),
                                         sizeof(float) * c.size()))
                    << "ta=" << ta << " tb=" << tb
                    << ": prepacked B differs from unpacked";

                WideMatrix wa(sa.data(), sa.shape().dim(0), lda);
                WideMatrix wb(sb.data(), sb.shape().dim(0), ldb);
                WideMatrix wc(c0.data(), m, n);
                const std::vector<float> wc_before = wc.buf;
                GemmRaw(ta != 0, tb != 0, m, n, k, sc.alpha, wa.data(), wa.ld,
                        wb.data(), wb.ld, sc.beta, wc.data(), wc.ld, epi);
                for (int64_t i = 0; i < m; ++i) {
                  ASSERT_EQ(0, std::memcmp(wc.data() + i * wc.ld,
                                           c.data() + i * n,
                                           sizeof(float) *
                                               static_cast<size_t>(n)))
                      << "ta=" << ta << " tb=" << tb << ": strided row " << i
                      << " differs from the contiguous call";
                  // The padding of C is never written.
                  ASSERT_EQ(0, std::memcmp(wc.data() + i * wc.ld + n,
                                           wc_before.data() + 1 + i * wc.ld + n,
                                           sizeof(float) * 3))
                      << "row " << i;
                }

                if (first.empty()) {
                  first = c;
                  for (int64_t i = 0; i < m; ++i) {
                    for (int64_t j = 0; j < n; ++j) {
                      const size_t e = static_cast<size_t>(i * n + j);
                      double want = sc.alpha * prod[e] +
                                    static_cast<double>(sc.beta) * c0.at(i, j);
                      double bound = sc.alpha * mag[e] +
                                     std::fabs(sc.beta * c0.at(i, j));
                      const double bias_v =
                          sc.bias == GemmEpilogue::Bias::kPerRow
                              ? row_bias.data()[i]
                              : sc.bias == GemmEpilogue::Bias::kPerCol
                                    ? col_bias.data()[j]
                                    : 0.0;
                      want += bias_v;
                      bound = (k + 3) * u * (bound + std::fabs(bias_v));
                      if (sc.relu && want < 0.0) want = 0.0;
                      ASSERT_LE(std::fabs(c[e] - want), bound)
                          << "(" << i << "," << j << ")";
                    }
                  }
                } else {
                  ASSERT_EQ(0, std::memcmp(first.data(), c.data(),
                                           sizeof(float) * first.size()))
                      << "ta=" << ta << " tb=" << tb
                      << " differs from ta=0 tb=0";
                }
              }
            }
          }
        }
      }
    }
  }
}

// A row or column of C computed alone lands in a packed edge tile; inside
// the full product the same row or column is read in place. Both must agree
// bit for bit.
TEST(GemmBitExactTest, SlicesOfCMatchTheFullProduct) {
  KernelGuard guard;
  Rng rng(8765);
  const int64_t m = 17, n = 35;
  for (int64_t k : {int64_t{7}, int64_t{256}, int64_t{300}}) {
    for (int ta = 0; ta < 2; ++ta) {
      const Tensor a = MakeOperand(ta != 0, m, k, &rng);
      const Tensor b = MakeOperand(false, k, n, &rng);
      const int64_t lda = a.shape().dim(1);
      for (GemmKernel kernel : AvailableKernels()) {
        SetGemmKernel(kernel);
        SCOPED_TRACE(::testing::Message() << GemmKernelName(kernel) << " k="
                                          << k << " ta=" << ta);
        std::vector<float> full(static_cast<size_t>(m * n));
        GemmRaw(ta != 0, false, m, n, k, 1.0f, a.data(), lda, b.data(), n,
                0.0f, full.data(), n);
        for (int64_t i = 0; i < m; ++i) {
          std::vector<float> row(static_cast<size_t>(n));
          const float* a_row = ta != 0 ? a.data() + i : a.data() + i * lda;
          GemmRaw(ta != 0, false, 1, n, k, 1.0f, a_row, lda, b.data(), n,
                  0.0f, row.data(), n);
          ASSERT_EQ(0, std::memcmp(row.data(), full.data() + i * n,
                                   sizeof(float) * row.size()))
              << "row " << i;
        }
        for (int64_t j = 0; j < n; ++j) {
          std::vector<float> col(static_cast<size_t>(m));
          GemmRaw(ta != 0, false, m, 1, k, 1.0f, a.data(), lda, b.data() + j,
                  n, 0.0f, col.data(), 1);
          for (int64_t i = 0; i < m; ++i) {
            ASSERT_EQ(0, std::memcmp(&col[static_cast<size_t>(i)],
                                     &full[static_cast<size_t>(i * n + j)],
                                     sizeof(float)))
                << "(" << i << "," << j << ")";
          }
        }
      }
    }
  }
}

TEST(GemmDispatchTest, KernelNamesAndForcing) {
  KernelGuard guard;
  EXPECT_STREQ("portable", GemmKernelName(GemmKernel::kPortable));
  EXPECT_STREQ("avx2", GemmKernelName(GemmKernel::kAvx2));
  SetGemmKernel(GemmKernel::kPortable);
  EXPECT_EQ(GemmKernel::kPortable, ActiveGemmKernel());
  SetGemmKernel(GemmKernel::kAuto);
  const GemmKernel resolved = ActiveGemmKernel();
  EXPECT_NE(GemmKernel::kAuto, resolved);
  // Auto picks the fastest kernel the CPU runs — unless EDDE_GEMM_KERNEL
  // forces one (CI runs this suite with the env var pinned to portable).
  if (std::getenv("EDDE_GEMM_KERNEL") == nullptr) {
    EXPECT_EQ(gemm_internal::Avx2Available() ? GemmKernel::kAvx2
                                             : GemmKernel::kPortable,
              resolved);
  }
}

}  // namespace
}  // namespace edde
