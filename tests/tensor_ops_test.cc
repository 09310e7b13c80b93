#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "tensor/ops.h"
#include "tensor/quantize.h"
#include "tensor/rng.h"

namespace edde {
namespace {

Tensor RandomTensor(Shape shape, Rng* rng, float stddev = 1.0f) {
  Tensor t(std::move(shape));
  t.FillNormal(rng, 0.0f, stddev);
  return t;
}

// Naive O(MNK) reference gemm.
Tensor NaiveMatMul(const Tensor& a, const Tensor& b, bool ta, bool tb) {
  const int64_t m = ta ? a.shape().dim(1) : a.shape().dim(0);
  const int64_t k = ta ? a.shape().dim(0) : a.shape().dim(1);
  const int64_t n = tb ? b.shape().dim(0) : b.shape().dim(1);
  Tensor c(Shape{m, n}, 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = ta ? a.at(p, i) : a.at(i, p);
        const float bv = tb ? b.at(j, p) : b.at(p, j);
        acc += static_cast<double>(av) * bv;
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

// ---------------------------------------------------------------------------
// Gemm, parameterized over transpose flags and sizes
// ---------------------------------------------------------------------------

class GemmTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, int, int, int>> {};

TEST_P(GemmTest, MatchesNaiveReference) {
  const auto [ta, tb, m, n, k] = GetParam();
  Rng rng(101 + m * 7 + n * 3 + k);
  Tensor a = RandomTensor(ta ? Shape{k, m} : Shape{m, k}, &rng);
  Tensor b = RandomTensor(tb ? Shape{n, k} : Shape{k, n}, &rng);
  Tensor c(Shape{m, n}, 0.0f);
  Gemm(ta, tb, 1.0f, a, b, 0.0f, &c);
  Tensor expected = NaiveMatMul(a, b, ta, tb);
  for (int64_t i = 0; i < c.num_elements(); ++i) {
    EXPECT_NEAR(c.at(i), expected.at(i), 1e-3) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, GemmTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(1, 5, 64),
                       ::testing::Values(1, 7, 65),
                       ::testing::Values(1, 9, 70)));

TEST(GemmTest, AccumulatesWithBeta) {
  Rng rng(5);
  Tensor a = RandomTensor(Shape{3, 4}, &rng);
  Tensor b = RandomTensor(Shape{4, 2}, &rng);
  Tensor c(Shape{3, 2}, 1.0f);
  Gemm(false, false, 2.0f, a, b, 3.0f, &c);
  Tensor ref = NaiveMatMul(a, b, false, false);
  for (int64_t i = 0; i < c.num_elements(); ++i) {
    EXPECT_NEAR(c.at(i), 2.0f * ref.at(i) + 3.0f, 1e-4);
  }
}

TEST(GemmDeathTest, InnerDimensionMismatchAborts) {
  Tensor a(Shape{2, 3}), b(Shape{4, 2}), c(Shape{2, 2});
  EXPECT_DEATH(Gemm(false, false, 1.0f, a, b, 0.0f, &c), "inner dimension");
}

// IEEE semantics over short-circuits: a zero in A must still multiply the
// matching B row, so NaN/Inf from B reach C (the old kernel's zero-skip
// silently dropped them). tensor_gemm_test covers every kernel variant.
TEST(GemmTest, NanInBPropagatesThroughZeroInA) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Tensor a(Shape{1, 3}, {0.0f, 0.0f, 1.0f});
  Tensor b(Shape{3, 3}, {nan, inf, 1.0f,   //
                         1.0f, 1.0f, 1.0f,  //
                         1.0f, 1.0f, 1.0f});
  Tensor c(Shape{1, 3});
  Gemm(false, false, 1.0f, a, b, 0.0f, &c);
  EXPECT_TRUE(std::isnan(c.at(0, 0)));  // 0 * nan
  EXPECT_TRUE(std::isnan(c.at(0, 1)));  // 0 * inf
  EXPECT_FLOAT_EQ(c.at(0, 2), 1.0f);
}

// ---------------------------------------------------------------------------
// BLAS-1 / elementwise
// ---------------------------------------------------------------------------

TEST(Blas1Test, AxpyScaleAddDot) {
  Tensor x(Shape{3}, {1.0f, 2.0f, 3.0f});
  Tensor y(Shape{3}, {10.0f, 20.0f, 30.0f});
  Axpy(2.0f, x, &y);
  EXPECT_FLOAT_EQ(y.at(2), 36.0f);
  Scale(0.5f, &y);
  EXPECT_FLOAT_EQ(y.at(0), 6.0f);
  Tensor s = Add(x, x);
  EXPECT_FLOAT_EQ(s.at(1), 4.0f);
  EXPECT_DOUBLE_EQ(Dot(x, x), 14.0);
  EXPECT_DOUBLE_EQ(SquaredNorm(x), 14.0);
}

// ---------------------------------------------------------------------------
// Softmax family
// ---------------------------------------------------------------------------

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(7);
  Tensor logits = RandomTensor(Shape{5, 9}, &rng, 3.0f);
  Tensor p = Softmax(logits);
  for (int64_t i = 0; i < 5; ++i) {
    double row = 0.0;
    for (int64_t j = 0; j < 9; ++j) {
      const float v = p.at(i, j);
      EXPECT_GE(v, 0.0f);
      row += v;
    }
    EXPECT_NEAR(row, 1.0, 1e-5);
  }
}

TEST(SoftmaxTest, StableUnderLargeLogits) {
  Tensor logits(Shape{1, 3}, {1000.0f, 1001.0f, 999.0f});
  Tensor p = Softmax(logits);
  EXPECT_GT(p.at(0, 1), p.at(0, 0));
  EXPECT_FALSE(std::isnan(p.at(0, 0)));
  EXPECT_NEAR(p.at(0, 0) + p.at(0, 1) + p.at(0, 2), 1.0, 1e-5);
}

TEST(ArgmaxRowsTest, PicksLargest) {
  Tensor m(Shape{2, 3}, {0.1f, 0.7f, 0.2f, 0.5f, 0.1f, 0.4f});
  const auto idx = ArgmaxRows(m);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(RowL2DistanceTest, MatchesManualNorm) {
  Tensor a(Shape{2, 2}, {0.0f, 0.0f, 1.0f, 2.0f});
  Tensor b(Shape{2, 2}, {3.0f, 4.0f, 1.0f, 2.0f});
  const auto d = RowL2Distance(a, b);
  EXPECT_NEAR(d[0], 5.0f, 1e-6);
  EXPECT_NEAR(d[1], 0.0f, 1e-6);
}

// ---------------------------------------------------------------------------
// Convolution
// ---------------------------------------------------------------------------

TEST(Im2ColTest, Col2ImIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> certifies the backward pass wiring.
  Rng rng(33);
  ConvGeom g;
  g.in_channels = 2;
  g.out_channels = 1;
  g.kernel = 3;
  g.stride = 2;
  g.padding = 1;
  const int64_t h = 5, w = 5;
  const int64_t oh = g.OutExtent(h), ow = g.OutExtent(w);
  const int64_t batch = 3;  // one column block of three samples
  Tensor x = RandomTensor(Shape{batch, 2, h, w}, &rng);
  Tensor y = RandomTensor(Shape{2 * 3 * 3, batch * oh * ow}, &rng);
  Tensor cols(Shape{2 * 3 * 3, batch * oh * ow});
  Im2Col(x.data(), batch, 2, h, w, g, cols.data());
  Tensor xgrad(Shape{batch, 2, h, w}, 0.0f);
  Col2Im(y.data(), batch, 2, h, w, g, xgrad.data());
  EXPECT_NEAR(Dot(cols, y), Dot(x, xgrad), 1e-2);
}

// ---------------------------------------------------------------------------
// Conv2d differential checker: the blocked im2col kernels against a float64
// reference on random and degenerate shapes
// ---------------------------------------------------------------------------

struct ConvCase {
  int64_t batch, cin, cout, h, w, kernel, stride, padding;
};

ConvGeom GeomOf(const ConvCase& c) {
  ConvGeom g;
  g.in_channels = c.cin;
  g.out_channels = c.cout;
  g.kernel = c.kernel;
  g.stride = c.stride;
  g.padding = c.padding;
  return g;
}

// Float64 forward output and, for an upstream gradient dY, the input,
// weight and bias gradients. Each value carries the sum of the absolute
// values of its terms (`*_mag`), which scales the error bound.
struct ConvReference {
  std::vector<double> y, y_mag, dx, dx_mag, dw, dw_mag, db, db_mag;
};

ConvReference NaiveConv2dReference(const Tensor& input, const Tensor& weight,
                                   const Tensor& bias, const Tensor& grad_out,
                                   const ConvGeom& g) {
  const int64_t batch = input.shape().dim(0);
  const int64_t h = input.shape().dim(2);
  const int64_t w = input.shape().dim(3);
  const int64_t oh = g.OutExtent(h);
  const int64_t ow = g.OutExtent(w);
  const int64_t k = g.kernel;
  ConvReference ref;
  ref.y.assign(static_cast<size_t>(grad_out.num_elements()), 0.0);
  ref.y_mag = ref.y;
  ref.dx.assign(static_cast<size_t>(input.num_elements()), 0.0);
  ref.dx_mag = ref.dx;
  ref.dw.assign(static_cast<size_t>(weight.num_elements()), 0.0);
  ref.dw_mag = ref.dw;
  ref.db.assign(static_cast<size_t>(g.out_channels), 0.0);
  ref.db_mag = ref.db;
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t oc = 0; oc < g.out_channels; ++oc) {
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t x = 0; x < ow; ++x) {
          const size_t o =
              static_cast<size_t>(((n * g.out_channels + oc) * oh + y) * ow + x);
          const double go = grad_out.data()[o];
          double acc = bias.empty() ? 0.0 : bias.data()[oc];
          double mag = std::fabs(acc);
          ref.db[oc] += go;
          ref.db_mag[oc] += std::fabs(go);
          for (int64_t ic = 0; ic < g.in_channels; ++ic) {
            for (int64_t ky = 0; ky < k; ++ky) {
              for (int64_t kx = 0; kx < k; ++kx) {
                const int64_t iy = y * g.stride + ky - g.padding;
                const int64_t ix = x * g.stride + kx - g.padding;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                const size_t xi = static_cast<size_t>(
                    ((n * g.in_channels + ic) * h + iy) * w + ix);
                const size_t wi = static_cast<size_t>(
                    ((oc * g.in_channels + ic) * k + ky) * k + kx);
                const double xv = input.data()[xi];
                const double wv = weight.data()[wi];
                acc += xv * wv;
                mag += std::fabs(xv * wv);
                ref.dw[wi] += go * xv;
                ref.dw_mag[wi] += std::fabs(go * xv);
                ref.dx[xi] += go * wv;
                ref.dx_mag[xi] += std::fabs(go * wv);
              }
            }
          }
          ref.y[o] = acc;
          ref.y_mag[o] = mag;
        }
      }
    }
  }
  return ref;
}

// Float32 error bound for a sum of at most `terms` rounded products,
// accumulated in any order and any blocking, with or without FMA:
// (terms + 1)·u·Σ|terms| with u = 2⁻²⁴.
void ExpectWithinF32Bound(const Tensor& got, const std::vector<double>& want,
                          const std::vector<double>& mag, int64_t terms,
                          const char* what) {
  ASSERT_EQ(static_cast<size_t>(got.num_elements()), want.size()) << what;
  const double u = std::ldexp(1.0, -24);
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_LE(std::fabs(got.data()[i] - want[i]), (terms + 1) * u * mag[i])
        << what << " element " << i << ": got " << got.data()[i] << ", want "
        << want[i];
  }
}

void CheckConvAgainstReference(const ConvCase& c, uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << "batch " << c.batch << " cin " << c.cin << " cout " << c.cout
               << " " << c.h << "x" << c.w << " k " << c.kernel << " stride "
               << c.stride << " pad " << c.padding);
  const ConvGeom g = GeomOf(c);
  const int64_t oh = g.OutExtent(c.h), ow = g.OutExtent(c.w);
  ASSERT_GT(oh, 0);
  ASSERT_GT(ow, 0);
  Rng rng(seed);
  const Tensor input = RandomTensor(Shape{c.batch, c.cin, c.h, c.w}, &rng);
  const Tensor weight =
      RandomTensor(Shape{c.cout, c.cin, c.kernel, c.kernel}, &rng);
  const Tensor bias = RandomTensor(Shape{c.cout}, &rng);
  const Tensor grad_out = RandomTensor(Shape{c.batch, c.cout, oh, ow}, &rng);
  const ConvReference ref =
      NaiveConv2dReference(input, weight, bias, grad_out, g);

  const Tensor y = Conv2dForward(input, weight, bias, g);
  ASSERT_EQ(y.shape(), Shape({c.batch, c.cout, oh, ow}));
  ExpectWithinF32Bound(y, ref.y, ref.y_mag, c.cin * c.kernel * c.kernel + 1,
                       "y");

  Tensor wg(weight.shape(), 0.0f);
  Tensor bg(Shape{c.cout}, 0.0f);
  Tensor dx(input.shape());
  Conv2dBackward(input, weight, grad_out, g, &wg, &bg, &dx);
  ExpectWithinF32Bound(dx, ref.dx, ref.dx_mag,
                       c.cout * c.kernel * c.kernel, "dx");
  ExpectWithinF32Bound(wg, ref.dw, ref.dw_mag, c.batch * oh * ow, "dw");
  ExpectWithinF32Bound(bg, ref.db, ref.db_mag, c.batch * oh * ow, "db");
}

class Conv2dOpTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(Conv2dOpTest, MatchesFloat64Reference) {
  const auto [cin, cout, stride, padding] = GetParam();
  CheckConvAgainstReference({2, cin, cout, 6, 6, 3, stride, padding}, 31);
}

INSTANTIATE_TEST_SUITE_P(Geometries, Conv2dOpTest,
                         ::testing::Combine(::testing::Values(1, 3),
                                            ::testing::Values(1, 4),
                                            ::testing::Values(1, 2),
                                            ::testing::Values(0, 1)));

std::vector<ConvCase> DegenerateConvCases() {
  return {
      {1, 3, 4, 6, 6, 3, 1, 1},  // batch 1
      {3, 2, 3, 1, 1, 3, 1, 1},  // 1x1 spatial, padded 3x3 kernel
      {2, 3, 2, 1, 1, 1, 1, 0},  // 1x1 spatial, 1x1 kernel
      {2, 2, 3, 7, 8, 2, 3, 0},  // stride > kernel
      {3, 4, 5, 5, 4, 1, 1, 0},  // k = 1
      {2, 1, 2, 5, 5, 1, 2, 0},  // k = 1 with stride
      {2, 5, 7, 5, 5, 3, 1, 1},  // odd channel counts
      {2, 3, 3, 6, 6, 3, 1, 0},  // padding 0
      {2, 3, 3, 3, 3, 3, 2, 0},  // padding 0, single output pixel
      // Stride 1 with p ≤ k−1 runs backward as a correlation over dY's
      // im2col: k = 3 at p = k−1, and k = 5 at every p.
      {2, 3, 4, 6, 6, 3, 1, 2},
      {2, 2, 3, 7, 6, 5, 1, 0},
      {2, 2, 3, 6, 7, 5, 1, 1},
      {2, 3, 2, 5, 5, 5, 1, 2},
      {2, 2, 3, 4, 3, 5, 1, 3},
      {2, 3, 2, 2, 2, 5, 1, 4},  // output larger than the input
      // Stride 1 with p ≥ k falls back to Col2Im.
      {2, 3, 2, 4, 5, 1, 1, 1},
      {2, 2, 3, 3, 4, 2, 1, 2},
      {1, 2, 2, 3, 3, 3, 1, 3},
  };
}

std::vector<ConvCase> RandomConvCases() {
  Rng shapes(77);
  std::vector<ConvCase> cases;
  for (int trial = 0; trial < 24; ++trial) {
    ConvCase c;
    c.batch = 1 + shapes.UniformInt(5);
    c.cin = 1 + shapes.UniformInt(6);
    c.cout = 1 + shapes.UniformInt(7);
    c.kernel = 1 + shapes.UniformInt(3);
    c.stride = 1 + shapes.UniformInt(3);
    c.padding = shapes.UniformInt(c.kernel);
    // Input extents at least the kernel, so the output is never empty.
    c.h = c.kernel + shapes.UniformInt(8);
    c.w = c.kernel + shapes.UniformInt(8);
    cases.push_back(c);
  }
  return cases;
}

// Two full blocks of Conv2dBlockSamples and a one-sample tail.
ConvCase MultiBlockConvCase() {
  ConvCase c{0, 8, 4, 12, 12, 3, 1, 1};
  c.batch = 2 * Conv2dBlockSamples(GeomOf(c), c.h, c.w) + 1;
  return c;
}

// Two full blocks of the dY im2col (in = cout) and a one-sample tail; the
// input's im2col would block this batch differently.
ConvCase MultiBlockGradOutConvCase() {
  ConvCase c{0, 4, 8, 12, 12, 3, 1, 1};
  ConvGeom dy = GeomOf(c);
  dy.in_channels = c.cout;
  c.batch = 2 * Conv2dBlockSamples(dy, c.h, c.w) + 1;
  return c;
}

TEST(Conv2dDifferentialTest, DegenerateShapes) {
  uint64_t seed = 500;
  for (const ConvCase& c : DegenerateConvCases()) {
    CheckConvAgainstReference(c, ++seed);
  }
}

TEST(Conv2dDifferentialTest, RandomShapes) {
  uint64_t seed = 900;
  for (const ConvCase& c : RandomConvCases()) {
    CheckConvAgainstReference(c, seed++);
  }
}

TEST(Conv2dDifferentialTest, BatchSpanningSeveralBlocksWithPartialTail) {
  const ConvCase c = MultiBlockConvCase();
  ASSERT_GT(c.batch, 3);
  CheckConvAgainstReference(c, 1234);
  const ConvCase dy = MultiBlockGradOutConvCase();
  ASSERT_GT(dy.batch, 3);
  CheckConvAgainstReference(dy, 1235);
}

// Without the input gradient, backward returns an empty tensor and the
// parameter gradients are the same bits as the full call's, on the
// correlation path (stride 1) and the Col2Im path (stride 2, p ≥ k).
TEST(Conv2dBackwardTest, NoInputGradientKeepsParameterGradients) {
  const ConvCase cases[] = {{3, 3, 4, 6, 6, 3, 1, 1},
                            {3, 3, 4, 6, 6, 3, 2, 1},
                            {2, 3, 2, 4, 5, 1, 1, 1},
                            MultiBlockGradOutConvCase()};
  Rng rng(808);
  for (const ConvCase& c : cases) {
    SCOPED_TRACE(::testing::Message() << "stride " << c.stride << " pad "
                                      << c.padding << " batch " << c.batch);
    const ConvGeom g = GeomOf(c);
    const Tensor input = RandomTensor(Shape{c.batch, c.cin, c.h, c.w}, &rng);
    const Tensor weight =
        RandomTensor(Shape{c.cout, c.cin, c.kernel, c.kernel}, &rng);
    const Tensor grad_out = RandomTensor(
        Shape{c.batch, c.cout, g.OutExtent(c.h), g.OutExtent(c.w)}, &rng);
    // Accumulation starts from a nonzero gradient, as in a second step.
    const Tensor wg0 = RandomTensor(weight.shape(), &rng);
    const Tensor bg0 = RandomTensor(Shape{c.cout}, &rng);
    Tensor wg_full = wg0.Clone(), bg_full = bg0.Clone();
    Tensor wg = wg0.Clone(), bg = bg0.Clone();
    Tensor dx(input.shape());
    Conv2dBackward(input, weight, grad_out, g, &wg_full, &bg_full, &dx);
    Conv2dBackward(input, weight, grad_out, g, &wg, &bg, nullptr);
    EXPECT_EQ(0, std::memcmp(wg.data(), wg_full.data(),
                             sizeof(float) * static_cast<size_t>(
                                                 wg.num_elements())));
    EXPECT_EQ(0, std::memcmp(bg.data(), bg_full.data(),
                             sizeof(float) * static_cast<size_t>(c.cout)));
  }
}

// The forward's kept im2col columns stand in for the ones backward would
// rebuild: the same forward output, input gradient and parameter
// gradients, bit for bit, including a batch of several sample blocks.
TEST(Conv2dBackwardTest, ForwardColsReproduceTheRebuiltCols) {
  ConvCase multi_block{0, 4, 8, 12, 12, 3, 2, 1};
  multi_block.batch = 2 * Conv2dBlockSamples(GeomOf(multi_block), 12, 12) + 1;
  const ConvCase cases[] = {{3, 3, 4, 6, 6, 3, 2, 1},
                            {2, 3, 4, 7, 5, 1, 2, 0},
                            {2, 3, 2, 4, 5, 3, 1, 3},
                            MultiBlockGradOutConvCase(), multi_block};
  Rng rng(809);
  for (const ConvCase& c : cases) {
    SCOPED_TRACE(::testing::Message() << "stride " << c.stride << " pad "
                                      << c.padding << " batch " << c.batch);
    const ConvGeom g = GeomOf(c);
    const Tensor input = RandomTensor(Shape{c.batch, c.cin, c.h, c.w}, &rng);
    const Tensor weight =
        RandomTensor(Shape{c.cout, c.cin, c.kernel, c.kernel}, &rng);
    const Tensor bias = RandomTensor(Shape{c.cout}, &rng);
    const Tensor grad_out =
        RandomTensor(g.OutputShape(input.shape()), &rng);
    const int64_t cols_floats = Conv2dBackwardColsFloats(g, input.shape());
    Tensor cols(Shape{cols_floats + 1});  // nonempty for stride 1 too
    const Tensor y = Conv2dForward(input, weight, bias, g);
    const Tensor y_kept = Conv2dForward(input, weight, bias, g, Tensor(),
                                        cols_floats > 0 ? cols.data()
                                                        : nullptr);
    EXPECT_EQ(0, std::memcmp(y.data(), y_kept.data(),
                             sizeof(float) * static_cast<size_t>(
                                                 y.num_elements())));
    Tensor wg(weight.shape(), 0.0f), bg(bias.shape(), 0.0f);
    Tensor wg_kept(weight.shape(), 0.0f), bg_kept(bias.shape(), 0.0f);
    Tensor dx(input.shape()), dx_kept(input.shape());
    Conv2dBackward(input, weight, grad_out, g, &wg, &bg, &dx);
    Conv2dBackward(input, weight, grad_out, g, &wg_kept, &bg_kept, &dx_kept,
                   cols_floats > 0 ? cols.data() : nullptr);
    for (const auto& [got, want] :
         {std::pair{&dx_kept, &dx}, {&wg_kept, &wg}, {&bg_kept, &bg}}) {
      EXPECT_EQ(0, std::memcmp(got->data(), want->data(),
                               sizeof(float) * static_cast<size_t>(
                                                   want->num_elements())));
    }
  }
}

// Element-by-element im2col and its adjoint with a bounds test per value:
// the bit-exact reference for the offset-map kernels.
void NaiveIm2Col(const float* input, int64_t batch, int64_t channels,
                 int64_t height, int64_t width, const ConvGeom& geom,
                 float* cols) {
  const int64_t oh = geom.OutExtent(height), ow = geom.OutExtent(width);
  const int64_t k = geom.kernel;
  for (int64_t row = 0; row < channels * k * k; ++row) {
    const int64_t c = row / (k * k), ky = (row / k) % k, kx = row % k;
    for (int64_t s = 0; s < batch; ++s) {
      const float* img = input + (s * channels + c) * height * width;
      float* out = cols + (row * batch + s) * oh * ow;
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t x = 0; x < ow; ++x) {
          const int64_t iy = y * geom.stride + ky - geom.padding;
          const int64_t ix = x * geom.stride + kx - geom.padding;
          const bool inside = iy >= 0 && iy < height && ix >= 0 && ix < width;
          out[y * ow + x] = inside ? img[iy * width + ix] : 0.0f;
        }
      }
    }
  }
}

void NaiveCol2Im(const float* cols, int64_t batch, int64_t channels,
                 int64_t height, int64_t width, const ConvGeom& geom,
                 float* input_grad) {
  const int64_t oh = geom.OutExtent(height), ow = geom.OutExtent(width);
  const int64_t k = geom.kernel;
  for (int64_t s = 0; s < batch; ++s) {
    for (int64_t c = 0; c < channels; ++c) {
      float* img = input_grad + (s * channels + c) * height * width;
      for (int64_t ky = 0; ky < k; ++ky) {
        for (int64_t kx = 0; kx < k; ++kx) {
          const int64_t row = (c * k + ky) * k + kx;
          const float* in = cols + (row * batch + s) * oh * ow;
          for (int64_t y = 0; y < oh; ++y) {
            for (int64_t x = 0; x < ow; ++x) {
              const int64_t iy = y * geom.stride + ky - geom.padding;
              const int64_t ix = x * geom.stride + kx - geom.padding;
              if (iy >= 0 && iy < height && ix >= 0 && ix < width) {
                img[iy * width + ix] += in[y * ow + x];
              }
            }
          }
        }
      }
    }
  }
}

TEST(Im2ColTest, BitIdenticalToElementwiseLoops) {
  std::vector<ConvCase> cases = DegenerateConvCases();
  for (const ConvCase& c : RandomConvCases()) cases.push_back(c);
  cases.push_back(MultiBlockConvCase());
  Rng rng(4242);
  for (const ConvCase& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "batch " << c.batch << " cin " << c.cin << " " << c.h
                 << "x" << c.w << " k " << c.kernel << " stride " << c.stride
                 << " pad " << c.padding);
    const ConvGeom g = GeomOf(c);
    const int64_t ncols =
        c.batch * g.OutExtent(c.h) * g.OutExtent(c.w);
    const int64_t rows = c.cin * c.kernel * c.kernel;
    const Tensor x = RandomTensor(Shape{c.batch, c.cin, c.h, c.w}, &rng);
    Tensor got(Shape{rows, ncols}), want(Shape{rows, ncols});
    Im2Col(x.data(), c.batch, c.cin, c.h, c.w, g, got.data());
    NaiveIm2Col(x.data(), c.batch, c.cin, c.h, c.w, g, want.data());
    ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                             sizeof(float) * static_cast<size_t>(ncols * rows)))
        << "im2col";

    // Col2Im accumulates onto whatever the gradient already holds.
    const Tensor dcols = RandomTensor(Shape{rows, ncols}, &rng);
    Tensor dx_got = RandomTensor(x.shape(), &rng);
    Tensor dx_want = dx_got.Clone();
    Col2Im(dcols.data(), c.batch, c.cin, c.h, c.w, g, dx_got.data());
    NaiveCol2Im(dcols.data(), c.batch, c.cin, c.h, c.w, g, dx_want.data());
    ASSERT_EQ(0, std::memcmp(dx_got.data(), dx_want.data(),
                             sizeof(float) *
                                 static_cast<size_t>(x.num_elements())))
        << "col2im";
  }
}

TEST(Conv2dBlockSamplesTest, FitsColumnBudget) {
  ConvGeom g;
  g.in_channels = 4;
  g.out_channels = 4;
  // 36 rows x 36 pixels per sample: 25 samples fit 32 Ki floats.
  EXPECT_EQ(Conv2dBlockSamples(g, 6, 6), 25);
  // A single sample over budget still makes a block of one.
  g.in_channels = 64;
  EXPECT_EQ(Conv2dBlockSamples(g, 32, 32), 1);
}

TEST(Conv2dInt8Test, MultiBlockBatchMatchesPerSampleCalls) {
  // Activations quantize per output pixel, so how samples are grouped into
  // blocks must not change a single bit.
  Rng rng(61);
  ConvGeom g;
  g.in_channels = 6;
  g.out_channels = 5;
  const int64_t h = 10, w = 10;
  const int64_t block = Conv2dBlockSamples(g, h, w);
  ASSERT_GT(block, 1);
  const int64_t batch = 2 * block + 1;
  const Tensor input = RandomTensor(Shape{batch, g.in_channels, h, w}, &rng);
  const Tensor weight = RandomTensor(Shape{g.out_channels, g.in_channels, 3, 3},
                                     &rng, 0.3f);
  const Tensor bias = RandomTensor(Shape{g.out_channels}, &rng);
  const QuantizedMatrix q = QuantizeWeightsPerChannel(weight);
  const Tensor all = Conv2dForwardInt8(input, q, bias, g);
  const int64_t in_size = g.in_channels * h * w;
  const int64_t out_size = all.num_elements() / batch;
  for (int64_t n = 0; n < batch; ++n) {
    Tensor one(Shape{1, g.in_channels, h, w});
    std::copy(input.data() + n * in_size, input.data() + (n + 1) * in_size,
              one.data());
    const Tensor got = Conv2dForwardInt8(one, q, bias, g);
    ASSERT_EQ(got.num_elements(), out_size);
    for (int64_t i = 0; i < out_size; ++i) {
      ASSERT_EQ(got.data()[i], all.data()[n * out_size + i])
          << "sample " << n << " element " << i;
    }
  }
}

TEST(Conv1dTest, KnownKernelValues) {
  // Single channel, kernel [1, 0, -1]: discrete derivative.
  Conv1dGeom g;
  g.in_channels = 1;
  g.out_channels = 1;
  g.kernel = 3;
  Tensor input(Shape{1, 1, 5}, {1.0f, 2.0f, 4.0f, 8.0f, 16.0f});
  Tensor weight(Shape{1, 1, 3}, {1.0f, 0.0f, -1.0f});
  Tensor bias(Shape{1}, 0.0f);
  Tensor out = Conv1dForward(input, weight, bias, g);
  ASSERT_EQ(out.shape(), Shape({1, 1, 3}));
  EXPECT_FLOAT_EQ(out.at(0), 1.0f - 4.0f);
  EXPECT_FLOAT_EQ(out.at(1), 2.0f - 8.0f);
  EXPECT_FLOAT_EQ(out.at(2), 4.0f - 16.0f);
}

// ---------------------------------------------------------------------------
// Pooling
// ---------------------------------------------------------------------------

TEST(AvgPoolTest, ForwardAveragesAndBackwardSpreads) {
  Tensor input(Shape{1, 1, 2, 2}, {1.0f, 3.0f, 5.0f, 7.0f});
  Tensor out = AvgPool2dForward(input, 2);
  EXPECT_FLOAT_EQ(out.at(0), 4.0f);
  Tensor grad_out(Shape{1, 1, 1, 1}, {8.0f});
  Tensor grad_in = AvgPool2dBackward(input.shape(), grad_out, 2);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(grad_in.at(i), 2.0f);
}

TEST(GlobalAvgPoolTest, ForwardBackwardConsistency) {
  Rng rng(41);
  Tensor input = RandomTensor(Shape{2, 3, 4, 4}, &rng);
  Tensor out = GlobalAvgPool2dForward(input);
  ASSERT_EQ(out.shape(), Shape({2, 3}));
  double manual = 0.0;
  for (int64_t i = 0; i < 16; ++i) manual += input.at(0, 1, i / 4, i % 4);
  EXPECT_NEAR(out.at(0, 1), manual / 16.0, 1e-5);
  Tensor grad_out(Shape{2, 3}, 1.0f);
  Tensor grad_in = GlobalAvgPool2dBackward(input.shape(), grad_out);
  EXPECT_NEAR(grad_in.at(0), 1.0f / 16.0f, 1e-6);
  EXPECT_NEAR(grad_in.Sum(), 6.0, 1e-4);
}

TEST(MaxOverTimeTest, SelectsPerChannelMax) {
  Tensor input(Shape{1, 2, 3}, {1.0f, 9.0f, 2.0f, 4.0f, 3.0f, 8.0f});
  Tensor out = MaxOverTimeForward(input);
  EXPECT_FLOAT_EQ(out.at(0, 0), 9.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 8.0f);
  Tensor grad_out(Shape{1, 2}, {1.0f, 2.0f});
  Tensor grad_in = MaxOverTimeBackward(input, grad_out);
  EXPECT_FLOAT_EQ(grad_in.at(1), 1.0f);
  EXPECT_FLOAT_EQ(grad_in.at(5), 2.0f);
  EXPECT_DOUBLE_EQ(grad_in.Sum(), 3.0);
}

// ---------------------------------------------------------------------------
// Channel concat / split
// ---------------------------------------------------------------------------

TEST(ConcatChannelsTest, RoundTripsThroughSplit) {
  Rng rng(43);
  Tensor a = RandomTensor(Shape{2, 3, 2, 2}, &rng);
  Tensor b = RandomTensor(Shape{2, 5, 2, 2}, &rng);
  Tensor cat = ConcatChannels(a, b);
  ASSERT_EQ(cat.shape(), Shape({2, 8, 2, 2}));
  EXPECT_FLOAT_EQ(cat.at(1, 2, 1, 1), a.at(1, 2, 1, 1));
  EXPECT_FLOAT_EQ(cat.at(1, 3, 0, 0), b.at(1, 0, 0, 0));
  Tensor ga, gb;
  SplitChannelsGrad(cat, 3, &ga, &gb);
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    EXPECT_FLOAT_EQ(ga.at(i), a.at(i));
  }
  for (int64_t i = 0; i < b.num_elements(); ++i) {
    EXPECT_FLOAT_EQ(gb.at(i), b.at(i));
  }
}

}  // namespace
}  // namespace edde
