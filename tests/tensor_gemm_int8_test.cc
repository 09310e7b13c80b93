// Differential-testing harness for the int8 inference GEMM (DESIGN.md §13):
// every kernel tier against a float64 reference with a *proven* error bound
// (not a hand-tuned tolerance), quantize→dequantize round-trip properties,
// fp16 conversion properties, and the bit-identity contract — identical
// output bits across kernel tiers AND thread counts.

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/quantize.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "utils/threadpool.h"

namespace edde {
namespace {

// One entry per distinct code path: the kAvx2 dispatch tier hides two
// sub-tiers (vpmaddubsw and, where the CPU has it, the VNNI vpdpbusd
// drop-in), so the sweep pins each explicitly via the VNNI toggle.
struct Int8KernelVariant {
  GemmKernel kernel;
  bool vnni;
  const char* name;
};

std::vector<Int8KernelVariant> Int8Variants() {
  std::vector<Int8KernelVariant> variants = {
      {GemmKernel::kPortable, false, "portable"}};
  if (gemm_internal::Avx2Available()) {
    variants.push_back({GemmKernel::kAvx2, false, "avx2"});
    if (gemm_internal::Int8VnniAvailable()) {
      variants.push_back({GemmKernel::kAvx2, true, "avx2+vnni"});
    }
  }
  return variants;
}

void UseVariant(const Int8KernelVariant& v) {
  SetGemmKernel(v.kernel);
  gemm_internal::SetInt8VnniEnabled(v.vnni);
}

struct KernelGuard {
  ~KernelGuard() {
    SetGemmKernel(GemmKernel::kAuto);
    gemm_internal::SetInt8VnniEnabled(true);
  }
};

// Activations in stored layout: (m, k) row-major, or (k, m) when trans_a.
Tensor MakeActivations(bool trans_a, int64_t m, int64_t k, Rng* rng) {
  Tensor t(trans_a ? Shape{k, m} : Shape{m, k});
  t.FillUniform(rng, -2.0f, 2.0f);
  return t;
}

float ActivationAt(const Tensor& a, bool trans_a, int64_t i, int64_t p) {
  return trans_a ? a.at(p, i) : a.at(i, p);
}

/// The derivation behind the sweep's tolerance (DESIGN.md §13). Writing
/// â = s_a(q − z) and ŵ = s_w·c for the values the integer pipeline
/// represents exactly, quantization guarantees |â − a| ≤ s_a/2 and
/// |ŵ − w| ≤ s_w/2, so per output element
///   |ŷ − y| ≤ Σ_p |â·ŵ − a·w| ≤ Σ_p ( |a_p|·s_w/2 + (|w_p| + s_w/2)·s_a/2 ).
/// The float finalization adds only relative rounding on top, covered by the
/// small multiplicative slack.
double QuantErrorBound(const float* w_row, const Tensor& a, bool trans_a,
                       int64_t i, int64_t k, float act_scale,
                       float weight_scale) {
  double bound = 0.0;
  for (int64_t p = 0; p < k; ++p) {
    const double av = std::fabs(ActivationAt(a, trans_a, i, p));
    const double wv = std::fabs(w_row[p]);
    bound += av * weight_scale * 0.5 +
             (wv + weight_scale * 0.5) * act_scale * 0.5;
  }
  return bound * 1.001 + 1e-5;
}

TEST(GemmInt8SweepTest, OddShapesAllKernelsAllTransposesWithinProvenBound) {
  KernelGuard guard;
  const int64_t sizes[] = {1, 2, 3, 5, 7, 8, 9, 16, 17, 33};
  Rng rng(4321);
  for (const Int8KernelVariant& variant : Int8Variants()) {
    UseVariant(variant);
    for (int64_t m : sizes) {
      for (int64_t n : sizes) {
        for (int64_t k : sizes) {
          for (int ta = 0; ta < 2; ++ta) {
            for (int tc = 0; tc < 2; ++tc) {
              const Tensor a = MakeActivations(ta != 0, m, k, &rng);
              Tensor w(Shape{n, k});
              w.FillUniform(&rng, -1.0f, 1.0f);
              const QuantizedMatrix q = QuantizeWeightsPerChannel(w);
              std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
              const int64_t lda = ta != 0 ? m : k;
              const int64_t ldc = tc != 0 ? m : n;
              GemmInt8(ta != 0, tc != 0, m, k, a.data(), lda, q, c.data(),
                       ldc);
              // Recover the per-row activation scale the kernel used via
              // the same shared quantization routine.
              std::vector<uint8_t> scratch(static_cast<size_t>(q.stride));
              for (int64_t i = 0; i < m; ++i) {
                const float* src = ta != 0 ? a.data() + i : a.data() + i * k;
                const QuantizedRowParams params = QuantizeActivationRow(
                    src, k, ta != 0 ? lda : 1, scratch.data(), q.stride);
                for (int64_t j = 0; j < n; ++j) {
                  double want = 0.0;
                  for (int64_t p = 0; p < k; ++p) {
                    want += static_cast<double>(
                                ActivationAt(a, ta != 0, i, p)) *
                            w.at(j, p);
                  }
                  const double bound = QuantErrorBound(
                      w.data() + j * k, a, ta != 0, i, k, params.scale,
                      q.scales[static_cast<size_t>(j)]);
                  const float got =
                      c[static_cast<size_t>(tc != 0 ? j * m + i : i * n + j)];
                  ASSERT_NEAR(got, want, bound)
                      << variant.name << " m=" << m << " n=" << n
                      << " k=" << k << " ta=" << ta << " tc=" << tc << " ("
                      << i << "," << j << ")";
                }
              }
            }
          }
        }
      }
    }
  }
}

TEST(GemmInt8EpilogueTest, BiasAndReluAllKernels) {
  KernelGuard guard;
  Rng rng(99);
  const int64_t m = 17, n = 21, k = 13;
  for (const Int8KernelVariant& variant : Int8Variants()) {
    UseVariant(variant);
    for (int tc = 0; tc < 2; ++tc) {
      const Tensor a = MakeActivations(false, m, k, &rng);
      Tensor w(Shape{n, k});
      w.FillUniform(&rng, -1.0f, 1.0f);
      Tensor bias(Shape{n});
      bias.FillUniform(&rng, -1.0f, 1.0f);
      const QuantizedMatrix q = QuantizeWeightsPerChannel(w);
      GemmEpilogue epi;
      epi.relu = true;
      // The bias always broadcasts over output channels; the enum names the
      // stored layout (channels are columns plain, rows transposed).
      epi.bias = tc != 0 ? GemmEpilogue::Bias::kPerRow
                         : GemmEpilogue::Bias::kPerCol;
      epi.bias_data = bias.data();
      std::vector<float> c(static_cast<size_t>(m * n), -1.0f);
      GemmInt8(false, tc != 0, m, k, a.data(), k, q, c.data(), tc != 0 ? m : n,
               epi);
      std::vector<uint8_t> scratch(static_cast<size_t>(q.stride));
      for (int64_t i = 0; i < m; ++i) {
        const QuantizedRowParams params = QuantizeActivationRow(
            a.data() + i * k, k, 1, scratch.data(), q.stride);
        for (int64_t j = 0; j < n; ++j) {
          double want = 0.0;
          for (int64_t p = 0; p < k; ++p) {
            want += static_cast<double>(a.at(i, p)) * w.at(j, p);
          }
          want += bias.at(j);
          const double bound =
              QuantErrorBound(w.data() + j * k, a, false, i, k, params.scale,
                              q.scales[static_cast<size_t>(j)]);
          if (want < 0.0) {
            // ReLU clamps both sides: the quantized value is ≥ 0 and within
            // `bound` of max(want, 0).
            ASSERT_LE(c[static_cast<size_t>(tc != 0 ? j * m + i : i * n + j)],
                      bound)
                << variant.name << " tc=" << tc;
          } else {
            ASSERT_NEAR(
                c[static_cast<size_t>(tc != 0 ? j * m + i : i * n + j)], want,
                bound)
                << variant.name << " tc=" << tc;
          }
        }
      }
    }
  }
}

// The int8 contract is stronger than fp32's: the integer accumulation is
// exact, so every kernel tier produces the same output *bits*.
TEST(GemmInt8DeterminismTest, BitIdenticalAcrossKernels) {
  KernelGuard guard;
  Rng rng(2025);
  const int64_t m = 37, n = 41, k = 67;
  const Tensor a = MakeActivations(false, m, k, &rng);
  Tensor w(Shape{n, k});
  w.FillUniform(&rng, -1.0f, 1.0f);
  const QuantizedMatrix q = QuantizeWeightsPerChannel(w);
  const std::vector<Int8KernelVariant> variants = Int8Variants();
  std::vector<std::vector<float>> results;
  for (const Int8KernelVariant& variant : variants) {
    UseVariant(variant);
    std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
    GemmInt8(false, false, m, k, a.data(), k, q, c.data(), n);
    results.push_back(std::move(c));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(results[0].data(), results[i].data(),
                             sizeof(float) * static_cast<size_t>(m * n)))
        << variants[i].name << " differs from portable bits";
  }
}

TEST(GemmInt8DeterminismTest, BitIdenticalAcrossThreadCounts) {
  KernelGuard guard;
  Rng rng(2026);
  const int64_t m = 200, n = 96, k = 300;
  const Tensor a = MakeActivations(false, m, k, &rng);
  Tensor w(Shape{n, k});
  w.FillUniform(&rng, -1.0f, 1.0f);
  const QuantizedMatrix q = QuantizeWeightsPerChannel(w);
  for (const Int8KernelVariant& variant : Int8Variants()) {
    UseVariant(variant);
    std::vector<float> c1(static_cast<size_t>(m * n));
    std::vector<float> c4(static_cast<size_t>(m * n));
    std::vector<float> c4b(static_cast<size_t>(m * n));
    SetNumThreads(1);
    GemmInt8(false, false, m, k, a.data(), k, q, c1.data(), n);
    SetNumThreads(4);
    GemmInt8(false, false, m, k, a.data(), k, q, c4.data(), n);
    GemmInt8(false, false, m, k, a.data(), k, q, c4b.data(), n);
    SetNumThreads(0);
    EXPECT_EQ(0, std::memcmp(c1.data(), c4.data(),
                             sizeof(float) * static_cast<size_t>(m * n)))
        << variant.name << ": 1-thread vs 4-thread mismatch";
    EXPECT_EQ(0, std::memcmp(c4.data(), c4b.data(),
                             sizeof(float) * static_cast<size_t>(m * n)))
        << variant.name << ": repeated call mismatch";
  }
}

// ---------------------------------------------------------------------------
// quantize → dequantize round-trip properties
// ---------------------------------------------------------------------------

TEST(QuantizeWeightsTest, RoundTripWithinHalfScale) {
  Rng rng(7);
  const std::vector<std::pair<int64_t, int64_t>> shapes = {
      {1, 1}, {3, 7}, {16, 33}, {21, 64}};
  for (const auto& [rows, cols] : shapes) {
    Tensor w(Shape{rows, cols});
    w.FillUniform(&rng, -3.0f, 3.0f);
    const QuantizedMatrix q = QuantizeWeightsPerChannel(w);
    EXPECT_EQ(q.rows, rows);
    EXPECT_EQ(q.cols, cols);
    EXPECT_EQ(q.stride % kInt8KStride, 0);
    std::vector<float> deq(static_cast<size_t>(rows * cols));
    DequantizeWeights(q, deq.data());
    for (int64_t r = 0; r < rows; ++r) {
      const float scale = q.scales[static_cast<size_t>(r)];
      ASSERT_GT(scale, 0.0f);
      int32_t sum = 0;
      for (int64_t c = 0; c < cols; ++c) {
        const int8_t code = q.row(r)[c];
        ASSERT_LE(std::abs(static_cast<int>(code)), kWeightQuantMax);
        sum += code;
        ASSERT_NEAR(deq[static_cast<size_t>(r * cols + c)], w.at(r, c),
                    scale * 0.5f + 1e-6f)
            << "(" << r << "," << c << ")";
      }
      EXPECT_EQ(sum, q.row_sums[static_cast<size_t>(r)]) << "row " << r;
      // Padding bytes must be zero codes (the kernel consumes them).
      for (int64_t c = cols; c < q.stride; ++c) {
        ASSERT_EQ(0, q.row(r)[c]);
      }
    }
  }
}

TEST(QuantizeWeightsTest, AllZeroRowUsesUnitScale) {
  Tensor w(Shape{2, 5}, 0.0f);
  w.data()[5] = 0.25f;  // second row non-zero
  const QuantizedMatrix q = QuantizeWeightsPerChannel(w);
  EXPECT_FLOAT_EQ(1.0f, q.scales[0]);
  EXPECT_EQ(0, q.row_sums[0]);
  std::vector<float> deq(10);
  DequantizeWeights(q, deq.data());
  for (int i = 0; i < 5; ++i) EXPECT_FLOAT_EQ(0.0f, deq[i]);
  EXPECT_NEAR(0.25f, deq[5], q.scales[1] * 0.5f);
}

TEST(QuantizeActivationTest, RoundTripWithinHalfScale) {
  Rng rng(13);
  const int64_t k = 57;
  const int64_t padded = 64;
  Tensor a(Shape{1, k});
  a.FillUniform(&rng, -1.5f, 4.0f);
  std::vector<uint8_t> codes(static_cast<size_t>(padded), 0xAB);
  const QuantizedRowParams p =
      QuantizeActivationRow(a.data(), k, 1, codes.data(), padded);
  for (int64_t i = 0; i < k; ++i) {
    const float back =
        p.scale * static_cast<float>(static_cast<int32_t>(codes[i]) - p.zero);
    ASSERT_NEAR(back, a.data()[i], p.scale * 0.5f + 1e-6f) << "i=" << i;
  }
  for (int64_t i = k; i < padded; ++i) EXPECT_EQ(0, codes[i]);
}

TEST(QuantizeActivationTest, ConstantRowsExact) {
  for (const float v : {0.0f, 1.75f, -0.5f}) {
    std::vector<float> row(9, v);
    std::vector<uint8_t> codes(32, 0xFF);
    const QuantizedRowParams p =
        QuantizeActivationRow(row.data(), 9, 1, codes.data(), 32);
    for (int i = 0; i < 9; ++i) {
      const float back = p.scale * static_cast<float>(
                                       static_cast<int32_t>(codes[i]) - p.zero);
      ASSERT_FLOAT_EQ(back, v) << "v=" << v << " i=" << i;
    }
  }
}

TEST(QuantizeActivationTest, StridedReadsMatchContiguous) {
  Rng rng(21);
  const int64_t k = 23, ld = 5;
  std::vector<float> mat(static_cast<size_t>(k * ld));
  Tensor noise(Shape{k * ld});
  noise.FillUniform(&rng, -1.0f, 1.0f);
  std::memcpy(mat.data(), noise.data(), mat.size() * sizeof(float));
  // Column 2 read with stride ld vs the same values packed contiguously.
  std::vector<float> packed(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) packed[i] = mat[static_cast<size_t>(i * ld + 2)];
  std::vector<uint8_t> c_strided(32), c_packed(32);
  const QuantizedRowParams ps =
      QuantizeActivationRow(mat.data() + 2, k, ld, c_strided.data(), 32);
  const QuantizedRowParams pp =
      QuantizeActivationRow(packed.data(), k, 1, c_packed.data(), 32);
  EXPECT_FLOAT_EQ(ps.scale, pp.scale);
  EXPECT_EQ(ps.zero, pp.zero);
  EXPECT_EQ(0, std::memcmp(c_strided.data(), c_packed.data(), 32));
}

// ---------------------------------------------------------------------------
// fp16 conversion properties
// ---------------------------------------------------------------------------

TEST(HalfConversionTest, ExactValuesRoundTripExactly) {
  const float exact[] = {0.0f,   -0.0f,  1.0f,    -1.0f,  0.5f,
                         2.0f,   1.5f,   65504.0f, -65504.0f,
                         0.25f,  1024.0f, 6.103515625e-05f /* 2^-14 */};
  for (float v : exact) {
    const float back = HalfToFloat(FloatToHalf(v));
    EXPECT_EQ(v, back) << "v=" << v;
    // Signed zero must keep its sign bit.
    if (v == 0.0f) {
      EXPECT_EQ(std::signbit(v), std::signbit(back));
    }
  }
}

TEST(HalfConversionTest, NormalsRoundTripWithinRelativeEpsilon) {
  Rng rng(31);
  Tensor values(Shape{4096});
  values.FillUniform(&rng, -1000.0f, 1000.0f);
  for (int64_t i = 0; i < values.num_elements(); ++i) {
    const float v = values.data()[i];
    const float back = HalfToFloat(FloatToHalf(v));
    // binary16 has 11 significand bits: RNE error ≤ 2^-11 relative.
    EXPECT_NEAR(back, v, std::fabs(v) * 0x1p-11f + 1e-8f) << "i=" << i;
  }
}

TEST(HalfConversionTest, SubnormalsAndEdges) {
  // Largest half subnormal and the smallest one.
  EXPECT_EQ(0x03FF, FloatToHalf(HalfToFloat(0x03FF)));
  EXPECT_EQ(0x0001, FloatToHalf(HalfToFloat(0x0001)));
  // Below half of the smallest subnormal: underflow to signed zero.
  EXPECT_EQ(0x0000, FloatToHalf(1e-9f));
  EXPECT_EQ(0x8000, FloatToHalf(-1e-9f));
  // Overflow saturates to ±inf.
  EXPECT_EQ(0x7C00, FloatToHalf(1e6f));
  EXPECT_EQ(0xFC00, FloatToHalf(-1e6f));
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(0x7C00, FloatToHalf(inf));
  EXPECT_EQ(inf, HalfToFloat(0x7C00));
  EXPECT_TRUE(std::isnan(
      HalfToFloat(FloatToHalf(std::numeric_limits<float>::quiet_NaN()))));
  // Every half value round-trips bit-exactly through float (half ⊂ float).
  for (uint32_t bits = 0; bits < 0x10000u; ++bits) {
    const uint16_t h = static_cast<uint16_t>(bits);
    const uint32_t exp = (h >> 10) & 0x1Fu;
    if (exp == 0x1Fu && (h & 0x3FFu) != 0) continue;  // NaN payloads vary
    ASSERT_EQ(h, FloatToHalf(HalfToFloat(h))) << "half bits " << bits;
  }
}

TEST(HalfConversionTest, RoundsToNearestEven) {
  // Half spacing at 1.0 is 2^-10. 1 + 2^-11 is the exact midpoint of
  // [1.0, 1 + 2^-10]; RNE picks the even mantissa (1.0). 1 + 3·2^-11 is the
  // midpoint of [1 + 2^-10, 1 + 2^-9] whose lower neighbor has an odd
  // mantissa, so RNE rounds up to 1 + 2^-9.
  EXPECT_EQ(FloatToHalf(1.0f), FloatToHalf(1.0f + 0x1p-11f));
  EXPECT_EQ(FloatToHalf(1.0f + 0x1p-9f), FloatToHalf(1.0f + 3 * 0x1p-11f));
  // Just above the midpoint rounds up.
  EXPECT_EQ(FloatToHalf(1.0f + 0x1p-10f),
            FloatToHalf(1.0f + 0x1p-11f + 0x1p-20f));
}

TEST(HalfConversionTest, BulkConvertersMatchScalar) {
  Rng rng(41);
  Tensor values(Shape{257});
  values.FillUniform(&rng, -10.0f, 10.0f);
  const size_t n = static_cast<size_t>(values.num_elements());
  std::vector<uint16_t> halves(n);
  FloatsToHalfs(values.data(), halves.data(), n);
  std::vector<float> back(n);
  HalfsToFloats(halves.data(), back.data(), n);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(halves[i], FloatToHalf(values.data()[i]));
    EXPECT_EQ(back[i], HalfToFloat(halves[i]));
  }
}

}  // namespace
}  // namespace edde
