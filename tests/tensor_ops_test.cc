#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <tuple>
#include <vector>

#include "tensor/gemm.h"
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

// ---------------------------------------------------------------------------
// Conv2d differential checker: the direct batch-innermost kernels against a
// float64 reference on random and degenerate shapes
// ---------------------------------------------------------------------------

struct ConvCase {
  int64_t batch, cin, cout, h, w, kernel, stride, padding;
  /// A 1 × kernel kernel, as TextCNN's Conv1d runs on a height-1 plane,
  /// instead of kernel × kernel.
  bool row_kernel = false;

  int64_t kh() const { return row_kernel ? 1 : kernel; }
  Shape WeightShape() const { return Shape{cout, cin, kh(), kernel}; }
};

std::ostream& operator<<(std::ostream& os, const ConvCase& c) {
  return os << "batch " << c.batch << " cin " << c.cin << " cout " << c.cout
            << " " << c.h << "x" << c.w << " k " << c.kh() << "x" << c.kernel
            << " stride " << c.stride << " pad " << c.padding;
}

ConvGeom GeomOf(const ConvCase& c) {
  ConvGeom g;
  g.in_channels = c.cin;
  g.out_channels = c.cout;
  g.kernel_h = c.kh();
  g.kernel_w = c.kernel;
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
  const int64_t oh = g.OutHeight(h);
  const int64_t ow = g.OutWidth(w);
  const int64_t kh = g.kernel_h, kw = g.kernel_w;
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
            for (int64_t ky = 0; ky < kh; ++ky) {
              for (int64_t kx = 0; kx < kw; ++kx) {
                const int64_t iy = y * g.stride + ky - g.padding;
                const int64_t ix = x * g.stride + kx - g.padding;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                const size_t xi = static_cast<size_t>(
                    ((n * g.in_channels + ic) * h + iy) * w + ix);
                const size_t wi = static_cast<size_t>(
                    ((oc * g.in_channels + ic) * kh + ky) * kw + kx);
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
  SCOPED_TRACE(::testing::Message() << c);
  const ConvGeom g = GeomOf(c);
  const int64_t oh = g.OutHeight(c.h), ow = g.OutWidth(c.w);
  ASSERT_GT(oh, 0);
  ASSERT_GT(ow, 0);
  Rng rng(seed);
  const Tensor input = RandomTensor(Shape{c.batch, c.cin, c.h, c.w}, &rng);
  const Tensor weight = RandomTensor(c.WeightShape(), &rng);
  const Tensor bias = RandomTensor(Shape{c.cout}, &rng);
  const Tensor grad_out = RandomTensor(Shape{c.batch, c.cout, oh, ow}, &rng);
  const ConvReference ref =
      NaiveConv2dReference(input, weight, bias, grad_out, g);

  const Tensor y = Conv2dForward(input, weight, bias, g);
  ASSERT_EQ(y.shape(), Shape({c.batch, c.cout, oh, ow}));
  ExpectWithinF32Bound(y, ref.y, ref.y_mag, c.cin * c.kh() * c.kernel + 1,
                       "y");

  Tensor wg(weight.shape(), 0.0f);
  Tensor bg(Shape{c.cout}, 0.0f);
  Tensor dx(input.shape());
  Conv2dBackward(input, weight, grad_out, g, &wg, &bg, &dx);
  ExpectWithinF32Bound(dx, ref.dx, ref.dx_mag,
                       c.cout * c.kh() * c.kernel, "dx");
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
      // Stride 1 with p ≤ k−1 sums dX as a correlation of dY with the
      // flipped kernel: k = 3 at p = k−1, and k = 5 at every p.
      {2, 3, 4, 6, 6, 3, 1, 2},
      {2, 2, 3, 7, 6, 5, 1, 0},
      {2, 2, 3, 6, 7, 5, 1, 1},
      {2, 3, 2, 5, 5, 5, 1, 2},
      {2, 2, 3, 4, 3, 5, 1, 3},
      {2, 3, 2, 2, 2, 5, 1, 4},  // output larger than the input
      // Stride 1 with p ≥ k sums dX tap by tap, as Col2Im did.
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

// Large batches: several 16-sample register tiles and a lane tail.
ConvCase MultiBlockConvCase() { return {37, 8, 4, 12, 12, 3, 1, 1}; }
ConvCase MultiBlockGradOutConvCase() { return {41, 4, 8, 12, 12, 3, 1, 1}; }

// Every batch size around the kernels' 8-lane vectors and 16-sample tiles:
// full vectors, padded tails and a tail after full tiles, on both dX
// orders.
std::vector<ConvCase> LaneTailConvCases() {
  std::vector<ConvCase> cases;
  for (int64_t batch : {1, 7, 8, 9, 15, 16, 17, 33}) {
    cases.push_back({batch, 3, 5, 6, 6, 3, 1, 1});
    cases.push_back({batch, 4, 7, 7, 6, 3, 2, 1});
  }
  return cases;
}

// C·k² > 256: the forward and the stride-1 dX (depth OC·k²) sum in several
// kKC blocks of the packed GEMM.
std::vector<ConvCase> DeepConvCases() {
  return {
      {3, 29, 5, 5, 5, 3, 1, 1},   // depth 261: one step past a block
      {2, 64, 7, 4, 4, 3, 1, 1},   // depth 576: three blocks
      {2, 40, 30, 5, 4, 3, 1, 1},  // dX depth 270 as well
      {2, 30, 9, 6, 6, 3, 2, 1},   // stride 2: forward depth 270
      {2, 300, 3, 3, 3, 1, 1, 0},  // 1x1 kernel, depth 300
  };
}

// TextCNN's Conv1d: a 1 × k kernel over a height-1 plane of L tokens with E
// channels, stride 1, no padding. The tiny and small members' branches (E →
// F filters, k = 3..5, batch 32) on both synthetic datasets' lengths, lane
// tails, and a kernel as long as the sequence (one output position).
std::vector<ConvCase> RowKernelConvCases() {
  std::vector<ConvCase> cases;
  for (int64_t k : {3, 4, 5}) {
    cases.push_back({32, 8, 6, 1, 32, k, 1, 0, true});    // tiny, IMDB-like
    cases.push_back({32, 8, 6, 1, 16, k, 1, 0, true});    // tiny, MR-like
    cases.push_back({32, 16, 12, 1, 64, k, 1, 0, true});  // small, IMDB-like
    cases.push_back({32, 16, 12, 1, 24, k, 1, 0, true});  // small, MR-like
  }
  cases.push_back({9, 8, 6, 1, 16, 4, 1, 0, true});
  cases.push_back({33, 8, 6, 1, 32, 5, 1, 0, true});
  cases.push_back({7, 8, 6, 1, 5, 5, 1, 0, true});  // k = L
  cases.push_back({3, 60, 4, 1, 9, 5, 1, 0, true});  // depth 300
  return cases;
}

// 1x1 kernels, as the ResNet projections use them: stride 1 and 2, every
// batch around the 8-lane vectors and 16-sample tiles, and depth 300, one
// kKC block and then some.
std::vector<ConvCase> OneByOneConvCases() {
  std::vector<ConvCase> cases;
  for (int64_t stride : {1, 2}) {
    for (int64_t batch : {1, 7, 8, 9, 15, 16, 17, 33}) {
      cases.push_back({batch, 4, 8, 6, 6, 1, stride, 0});
    }
    cases.push_back({3, 300, 5, 5, 4, 1, stride, 0});
    cases.push_back({17, 300, 7, 3, 3, 1, stride, 0});
  }
  return cases;
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
  CheckConvAgainstReference(MultiBlockConvCase(), 1234);
  CheckConvAgainstReference(MultiBlockGradOutConvCase(), 1235);
}

TEST(Conv2dDifferentialTest, LaneTails) {
  uint64_t seed = 1300;
  for (const ConvCase& c : LaneTailConvCases()) {
    CheckConvAgainstReference(c, seed++);
  }
}

TEST(Conv2dDifferentialTest, DepthBeyondOneGemmBlock) {
  uint64_t seed = 1400;
  for (const ConvCase& c : DeepConvCases()) {
    CheckConvAgainstReference(c, seed++);
  }
}

TEST(Conv2dDifferentialTest, OneByOneKernels) {
  uint64_t seed = 1500;
  for (const ConvCase& c : OneByOneConvCases()) {
    CheckConvAgainstReference(c, seed++);
  }
}

TEST(Conv2dDifferentialTest, RowKernels) {
  uint64_t seed = 1600;
  for (const ConvCase& c : RowKernelConvCases()) {
    CheckConvAgainstReference(c, seed++);
  }
}

// A 1 × 5 kernel on a length-3 sequence has no output position.
TEST(Conv2dDeathTest, EmptyOutputAborts) {
  ConvGeom g;
  g.in_channels = 2;
  g.out_channels = 3;
  g.kernel_h = 1;
  g.kernel_w = 5;
  g.padding = 0;
  const Tensor x(Shape{4, 2, 1, 3}, 1.0f);
  const Tensor w(Shape{3, 2, 1, 5}, 1.0f);
  EXPECT_DEATH(Conv2dForward(x, w, Tensor(), g), "conv output is empty");
}

// Without the input gradient, backward returns an empty tensor and the
// parameter gradients are the same bits as the full call's, for both dX
// orders: the correlation (stride 1) and tap by tap (stride 2, p ≥ k).
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
    const Tensor weight = RandomTensor(c.WeightShape(), &rng);
    const Tensor grad_out = RandomTensor(g.OutputShape(input.shape()), &rng);
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

// The forward's kept batch-innermost copy stands in for the one backward
// would rebuild: the same forward output, input gradient and parameter
// gradients, bit for bit. The copy itself is the input with the batch
// innermost and the padded lanes zero, for 1x1 kernels too.
TEST(Conv2dBackwardTest, ForwardCopyReproducesTheRebuiltCopy) {
  const ConvCase cases[] = {{3, 3, 4, 6, 6, 3, 2, 1},
                            {2, 3, 4, 7, 5, 1, 2, 0},
                            {2, 3, 2, 4, 5, 3, 1, 3},
                            {16, 3, 4, 6, 6, 3, 1, 1},
                            MultiBlockGradOutConvCase(), MultiBlockConvCase()};
  Rng rng(809);
  for (const ConvCase& c : cases) {
    SCOPED_TRACE(::testing::Message() << c);
    const ConvGeom g = GeomOf(c);
    const Tensor input = RandomTensor(Shape{c.batch, c.cin, c.h, c.w}, &rng);
    const Tensor weight = RandomTensor(c.WeightShape(), &rng);
    const Tensor bias = RandomTensor(Shape{c.cout}, &rng);
    const Tensor grad_out =
        RandomTensor(g.OutputShape(input.shape()), &rng);
    const int64_t plane = c.h * c.w;
    const int64_t lanes = (c.batch + 7) / 8 * 8;
    const Shape kept_shape = Conv2dInputCopyShape(input.shape());
    ASSERT_EQ(kept_shape, Shape({c.cin, c.h, c.w, lanes}));
    Tensor want(kept_shape, 0.0f);
    for (int64_t ch = 0; ch < c.cin; ++ch) {
      for (int64_t p = 0; p < plane; ++p) {
        for (int64_t n = 0; n < c.batch; ++n) {
          want.data()[(ch * plane + p) * lanes + n] =
              input.data()[(n * c.cin + ch) * plane + p];
        }
      }
    }
    Tensor kept(kept_shape, 123.0f);  // every element must be written
    const Tensor y = Conv2dForward(input, weight, bias, g);
    const Tensor y_kept = Conv2dForward(input, weight, bias, g, Tensor(), kept);
    EXPECT_EQ(0, std::memcmp(y.data(), y_kept.data(),
                             sizeof(float) * static_cast<size_t>(
                                                 y.num_elements())));
    ASSERT_EQ(0, std::memcmp(kept.data(), want.data(),
                             sizeof(float) * static_cast<size_t>(
                                                 want.num_elements())));
    Tensor wg(weight.shape(), 0.0f), bg(bias.shape(), 0.0f);
    Tensor wg_kept(weight.shape(), 0.0f), bg_kept(bias.shape(), 0.0f);
    Tensor dx(input.shape()), dx_kept(input.shape());
    Conv2dBackward(input, weight, grad_out, g, &wg, &bg, &dx);
    Conv2dBackward(input, weight, grad_out, g, &wg_kept, &bg_kept, &dx_kept,
                   kept);
    for (const auto& [got, want] :
         {std::pair{&dx_kept, &dx}, {&wg_kept, &wg}, {&bg_kept, &bg}}) {
      EXPECT_EQ(0, std::memcmp(got->data(), want->data(),
                               sizeof(float) * static_cast<size_t>(
                                                   want->num_elements())));
    }
  }
}

// <conv(x), dy> == <x, dX(dy)>: the input gradient is the forward's
// adjoint on both dX orders.
TEST(Conv2dBackwardTest, InputGradientIsTheForwardsAdjoint) {
  const ConvCase cases[] = {{3, 2, 3, 5, 5, 3, 2, 1},
                            {9, 2, 3, 5, 6, 3, 1, 1},
                            {2, 3, 2, 4, 5, 1, 1, 1}};
  Rng rng(33);
  for (const ConvCase& c : cases) {
    const ConvGeom g = GeomOf(c);
    const Tensor x = RandomTensor(Shape{c.batch, c.cin, c.h, c.w}, &rng);
    const Tensor weight = RandomTensor(c.WeightShape(), &rng);
    const Tensor dy = RandomTensor(g.OutputShape(x.shape()), &rng);
    const Tensor y = Conv2dForward(x, weight, Tensor(), g);
    Tensor wg(weight.shape(), 0.0f);
    Tensor dx(x.shape());
    Conv2dBackward(x, weight, dy, g, &wg, nullptr, &dx);
    EXPECT_NEAR(Dot(y, dy), Dot(x, dx), 1e-3 * (1.0 + std::fabs(Dot(y, dy))));
  }
}

// Element-by-element im2col and its adjoint with a bounds test per value:
// the columns the direct kernels' summation order is defined over, and the
// Col2Im order the tap-by-tap input gradient keeps.
void NaiveIm2Col(const float* input, int64_t batch, int64_t channels,
                 int64_t height, int64_t width, const ConvGeom& geom,
                 float* cols) {
  const int64_t oh = geom.OutHeight(height), ow = geom.OutWidth(width);
  const int64_t kh = geom.kernel_h, kw = geom.kernel_w;
  for (int64_t row = 0; row < channels * kh * kw; ++row) {
    const int64_t c = row / (kh * kw), ky = (row / kw) % kh, kx = row % kw;
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
  const int64_t oh = geom.OutHeight(height), ow = geom.OutWidth(width);
  const int64_t kh = geom.kernel_h, kw = geom.kernel_w;
  for (int64_t s = 0; s < batch; ++s) {
    for (int64_t c = 0; c < channels; ++c) {
      float* img = input_grad + (s * channels + c) * height * width;
      for (int64_t ky = 0; ky < kh; ++ky) {
        for (int64_t kx = 0; kx < kw; ++kx) {
          const int64_t row = (c * kh + ky) * kw + kx;
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

// ---------------------------------------------------------------------------
// The direct kernels keep the im2col + GEMM summation order, tier by tier
// ---------------------------------------------------------------------------

std::vector<GemmKernel> AvailableTiers() {
  std::vector<GemmKernel> tiers = {GemmKernel::kPortable};
  if (gemm_internal::Avx2Available()) tiers.push_back(GemmKernel::kAvx2);
  return tiers;
}

// Restores the default tier when a test leaves, pass or fail.
struct TierGuard {
  ~TierGuard() { SetGemmKernel(GemmKernel::kAuto); }
};

// Channel-major (C, N·P) -> NCHW (N, C, P).
Tensor ChannelMajorToNchw(const Tensor& cm, const Shape& nchw) {
  const int64_t batch = nchw.dim(0), c = nchw.dim(1);
  const int64_t plane = nchw.dim(2) * nchw.dim(3);
  Tensor out(nchw);
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t ch = 0; ch < c; ++ch) {
      std::copy_n(cm.data() + (ch * batch + n) * plane, plane,
                  out.data() + (n * c + ch) * plane);
    }
  }
  return out;
}

// The forward as W · im2col(x) on the active tier, bias fused.
Tensor Im2ColGemmForward(const Tensor& input, const Tensor& weight,
                         const Tensor& bias, const ConvGeom& g) {
  const Shape out_shape = g.OutputShape(input.shape());
  const int64_t batch = input.shape().dim(0);
  const int64_t depth = g.in_channels * g.kernel_h * g.kernel_w;
  const int64_t ncols = batch * out_shape.dim(2) * out_shape.dim(3);
  Tensor cols(Shape{depth, ncols});
  NaiveIm2Col(input.data(), batch, g.in_channels, input.shape().dim(2),
              input.shape().dim(3), g, cols.data());
  GemmEpilogue epi;
  epi.bias = GemmEpilogue::Bias::kPerRow;
  epi.bias_data = bias.data();
  Tensor out2d(Shape{g.out_channels, ncols});
  GemmRaw(false, false, g.out_channels, ncols, depth, 1.0f, weight.data(),
          depth, cols.data(), ncols, 0.0f, out2d.data(), ncols, epi);
  return ChannelMajorToNchw(out2d, out_shape);
}

// The input gradient as the im2col path summed it on the active tier: for
// stride 1 with p ≤ kh−1 and p ≤ kw−1 the correlation of dY, zero-bordered
// by kh−1−p rows and kw−1−p columns, with the flipped, transposed kernel;
// otherwise Col2Im of Wᵀ·dY.
Tensor Im2ColGemmInputGrad(const Tensor& weight, const Tensor& grad_out,
                           const ConvGeom& g, const Shape& input_shape) {
  const int64_t batch = input_shape.dim(0), cin = g.in_channels;
  const int64_t h = input_shape.dim(2), w = input_shape.dim(3);
  const int64_t kh = g.kernel_h, kw = g.kernel_w;
  const int64_t oc = g.out_channels, kk = kh * kw;
  const int64_t oh = grad_out.shape().dim(2), ow = grad_out.shape().dim(3);
  if (g.stride == 1 && g.padding <= std::min(kh, kw) - 1) {
    // The border differs per axis, so it is written into a copy of dY and
    // the correlation runs unpadded.
    const int64_t bh = kh - 1 - g.padding, bw = kw - 1 - g.padding;
    const int64_t ph = oh + 2 * bh, pw = ow + 2 * bw;
    Tensor bordered(Shape{batch, oc, ph, pw}, 0.0f);
    for (int64_t p = 0; p < batch * oc; ++p) {
      for (int64_t y = 0; y < oh; ++y) {
        std::copy_n(grad_out.data() + (p * oh + y) * ow, ow,
                    bordered.data() + (p * ph + y + bh) * pw + bw);
      }
    }
    ConvGeom corr;
    corr.in_channels = oc;
    corr.out_channels = cin;
    corr.kernel_h = kh;
    corr.kernel_w = kw;
    corr.stride = 1;
    corr.padding = 0;
    Tensor w_flip(Shape{cin, oc * kk});
    for (int64_t o = 0; o < oc; ++o) {
      for (int64_t c = 0; c < cin; ++c) {
        for (int64_t t = 0; t < kk; ++t) {
          w_flip.data()[(c * oc + o) * kk + t] =
              weight.data()[(o * cin + c) * kk + kk - 1 - t];
        }
      }
    }
    const int64_t ncols = batch * h * w;
    Tensor cols(Shape{oc * kk, ncols});
    NaiveIm2Col(bordered.data(), batch, oc, ph, pw, corr, cols.data());
    Tensor dx2d(Shape{cin, ncols});
    GemmRaw(false, false, cin, ncols, oc * kk, 1.0f, w_flip.data(), oc * kk,
            cols.data(), ncols, 0.0f, dx2d.data(), ncols);
    return ChannelMajorToNchw(dx2d, input_shape);
  }
  const int64_t ncols = batch * oh * ow;
  Tensor go2d(Shape{oc, ncols});
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t o = 0; o < oc; ++o) {
      std::copy_n(grad_out.data() + (n * oc + o) * oh * ow, oh * ow,
                  go2d.data() + (o * batch + n) * oh * ow);
    }
  }
  Tensor dcols(Shape{cin * kk, ncols});
  GemmRaw(true, false, cin * kk, ncols, oc, 1.0f, weight.data(), cin * kk,
          go2d.data(), ncols, 0.0f, dcols.data(), ncols);
  Tensor dx(input_shape, 0.0f);
  NaiveCol2Im(dcols.data(), batch, cin, h, w, g, dx.data());
  return dx;
}

void ExpectSameBits(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (int64_t i = 0; i < want.num_elements(); ++i) {
    uint32_t gb = 0, wb = 0;
    std::memcpy(&gb, got.data() + i, sizeof(gb));
    std::memcpy(&wb, want.data() + i, sizeof(wb));
    ASSERT_EQ(gb, wb) << what << " element " << i << ": got " << got.data()[i]
                      << ", want " << want.data()[i];
  }
}

std::vector<ConvCase> AllConvCases() {
  std::vector<ConvCase> cases = DegenerateConvCases();
  for (const auto& more : {RandomConvCases(), LaneTailConvCases(),
                           DeepConvCases(), OneByOneConvCases(),
                           RowKernelConvCases()}) {
    cases.insert(cases.end(), more.begin(), more.end());
  }
  // The ResNet-8 member's layers at the training batch.
  for (const ConvCase& c : std::vector<ConvCase>{{16, 3, 4, 6, 6, 3, 1, 1},
                                                 {16, 4, 8, 6, 6, 3, 2, 1},
                                                 {16, 4, 8, 6, 6, 1, 2, 0},
                                                 {16, 16, 16, 2, 2, 3, 1, 1}}) {
    cases.push_back(c);
  }
  cases.push_back(MultiBlockConvCase());
  cases.push_back(MultiBlockGradOutConvCase());
  return cases;
}

TEST(Conv2dTierTest, ForwardIsIm2ColGemmBitForBitOnEveryTier) {
  TierGuard guard;
  for (GemmKernel tier : AvailableTiers()) {
    SetGemmKernel(tier);
    Rng rng(2024);
    for (const ConvCase& c : AllConvCases()) {
      SCOPED_TRACE(::testing::Message() << GemmKernelName(tier) << " " << c);
      const ConvGeom g = GeomOf(c);
      const Tensor input = RandomTensor(Shape{c.batch, c.cin, c.h, c.w}, &rng);
      const Tensor weight = RandomTensor(c.WeightShape(), &rng);
      const Tensor bias = RandomTensor(Shape{c.cout}, &rng);
      ExpectSameBits(Conv2dForward(input, weight, bias, g),
                     Im2ColGemmForward(input, weight, bias, g), "forward");
    }
  }
}

TEST(Conv2dTierTest, InputGradientKeepsTheIm2ColOrderOnEveryTier) {
  TierGuard guard;
  for (GemmKernel tier : AvailableTiers()) {
    SetGemmKernel(tier);
    Rng rng(2025);
    for (const ConvCase& c : AllConvCases()) {
      SCOPED_TRACE(::testing::Message() << GemmKernelName(tier) << " " << c);
      const ConvGeom g = GeomOf(c);
      const Tensor input = RandomTensor(Shape{c.batch, c.cin, c.h, c.w}, &rng);
      const Tensor weight = RandomTensor(c.WeightShape(), &rng);
      const Tensor grad_out =
          RandomTensor(g.OutputShape(input.shape()), &rng);
      Tensor wg(weight.shape(), 0.0f);
      Tensor dx(input.shape());
      Conv2dBackward(input, weight, grad_out, g, &wg, nullptr, &dx);
      ExpectSameBits(dx,
                     Im2ColGemmInputGrad(weight, grad_out, g, input.shape()),
                     "input gradient");
    }
  }
}

TEST(Conv1dTest, KnownKernelValues) {
  // A sequence as a height-1 plane under a 1 × 3 kernel, as Conv1d runs it.
  // Single channel, kernel [1, 0, -1]: discrete derivative.
  ConvGeom g;
  g.in_channels = 1;
  g.out_channels = 1;
  g.kernel_h = 1;
  g.kernel_w = 3;
  g.padding = 0;
  Tensor input(Shape{1, 1, 1, 5}, {1.0f, 2.0f, 4.0f, 8.0f, 16.0f});
  Tensor weight(Shape{1, 1, 1, 3}, {1.0f, 0.0f, -1.0f});
  Tensor bias(Shape{1}, 0.0f);
  Tensor out = Conv2dForward(input, weight, bias, g);
  ASSERT_EQ(out.shape(), Shape({1, 1, 1, 3}));
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

TEST(MaxOverTimeDeathTest, EmptySequenceAborts) {
  const Tensor x(Shape{2, 3, 0});
  EXPECT_DEATH(MaxOverTimeForward(x), "empty sequence");
  EXPECT_DEATH(MaxOverTimeBackward(x, Tensor(Shape{2, 3}, 1.0f)),
               "empty sequence");
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
