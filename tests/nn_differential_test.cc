// Differential checker for the layers a training step runs fused or on the
// tape: BatchNorm (plain, with the fused ReLU, with the fused residual
// addition and ReLU), ReLU, GlobalAvgPool2d, Dense, Conv1d and TextCNN's
// max-over-time pooling. Each fp32 forward, input gradient and parameter
// gradient is compared with a naive float64 reference, within a bound for
// its precision, on seeded random shapes and on degenerate ones (N = 1,
// 1×1 planes, rank-2 input, channel counts that do not fill BatchNorm's
// channel group, a constant channel; a Conv1d kernel as long as the
// sequence, one output position, NaN and Inf behind a zero dY; tied
// maxima).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "nn/tape.h"
#include "tensor/ops.h"

namespace edde {
namespace {

// Unit roundoff of each precision; a check allows `terms`·u of the
// magnitude its reference accumulated.
constexpr double kFp32Unit = 1.0 / (1 << 24);

// |got − want| ≤ terms·unit·mag + tiny, element by element.
void ExpectWithin(const float* got, const std::vector<double>& want,
                  const std::vector<double>& mag, double terms, double unit,
                  const std::string& what) {
  for (size_t i = 0; i < want.size(); ++i) {
    const double bound = terms * unit * mag[i] + 1e-30;
    ASSERT_LE(std::fabs(got[i] - want[i]), bound)
        << what << " element " << i << ": got " << got[i] << ", want "
        << want[i] << ", magnitude " << mag[i];
  }
}

Tensor Random(const Shape& shape, Rng* rng, float stddev = 1.0f,
              float mean = 0.0f) {
  Tensor t(shape);
  t.FillNormal(rng, mean, stddev);
  return t;
}

// ---------------------------------------------------------------------------
// BatchNorm
// ---------------------------------------------------------------------------

enum class Fusion { kNone, kRelu, kResidualRelu };

struct BnCase {
  Shape shape;
  Fusion fusion;
  bool constant_channel = false;  // channel 0 holds one value: variance 0
};

std::string Describe(const BnCase& c) {
  static const char* const kNames[] = {"plain", "relu", "residual+relu"};
  std::string s = kNames[static_cast<int>(c.fusion)];
  s += " shape=[";
  for (int d = 0; d < c.shape.rank(); ++d) {
    s += (d > 0 ? "," : "") + std::to_string(c.shape.dim(d));
  }
  return s + (c.constant_channel ? "] constant channel" : "]");
}

void CheckBatchNorm(const BnCase& c, uint64_t seed) {
  SCOPED_TRACE(Describe(c));
  Rng rng(seed);
  const int64_t n = c.shape.dim(0);
  const int64_t ch = c.shape.dim(1);
  const int64_t hw = c.shape.rank() == 4 ? c.shape.dim(2) * c.shape.dim(3) : 1;
  const int64_t m = n * hw;
  const float eps = 1e-5f;
  const float momentum = 0.9f;

  // Off-center inputs, so the mean subtraction is exercised.
  Tensor x = Random(c.shape, &rng, 1.5f, 0.7f);
  if (c.constant_channel) {
    for (int64_t i = 0; i < n; ++i) {
      std::fill_n(x.data() + i * ch * hw, hw, 0.75f);
    }
  }
  const Tensor shortcut = Random(c.shape, &rng);
  const Tensor dy = Random(c.shape, &rng);

  BatchNorm bn(ch, momentum, eps);
  const std::vector<Parameter*> params = bn.Parameters();
  Parameter* gamma = params[0];
  Parameter* beta = params[1];
  gamma->value.FillNormal(&rng, 1.0f, 0.5f);
  beta->value.FillNormal(&rng, 0.0f, 0.5f);
  params[2]->value.FillNormal(&rng, 0.0f, 0.3f);  // running mean
  params[3]->value.FillUniform(&rng, 0.5f, 2.0f);  // running variance
  const Tensor running_mean0 = params[2]->value.Clone();
  const Tensor running_var0 = params[3]->value.Clone();

  // Eval forward against the running statistics.
  const bool residual = c.fusion == Fusion::kResidualRelu;
  const bool relu = c.fusion != Fusion::kNone;
  auto forward = [&](Tape* tape) {
    if (!relu) return bn.Forward(x, tape);
    return bn.ForwardRelu(x, residual ? shortcut : Tensor(), tape);
  };
  const auto index = [&](int64_t i, int64_t k, int64_t j) {
    return static_cast<size_t>((i * ch + k) * hw + j);
  };
  const auto finish = [&](double v, size_t e) {
    if (residual) v += shortcut.data()[e];
    return relu ? std::max(v, 0.0) : v;
  };
  {
    const Tensor y = forward(nullptr);
    std::vector<double> want(y.num_elements()), mag(y.num_elements());
    for (int64_t k = 0; k < ch; ++k) {
      const double mean = running_mean0.data()[k];
      const double inv_std =
          1.0 / std::sqrt(static_cast<double>(running_var0.data()[k]) + eps);
      const double g = gamma->value.data()[k], b = beta->value.data()[k];
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t j = 0; j < hw; ++j) {
          const size_t e = index(i, k, j);
          const double xv = x.data()[e];
          want[e] = finish(g * (xv - mean) * inv_std + b, e);
          mag[e] = std::fabs(g) * (std::fabs(xv) + std::fabs(mean)) *
                       inv_std +
                   std::fabs(b) + (residual ? std::fabs(shortcut.data()[e])
                                            : 0.0);
        }
      }
    }
    ExpectWithin(y.data(), want, mag, 8, kFp32Unit, "eval y");
  }

  // Training forward and backward against batch statistics.
  Tape tape;
  const Tensor y = forward(&tape);
  Tensor grad_shortcut;
  const Tensor dx = relu ? bn.BackwardRelu(dy, &tape,
                                           residual ? &grad_shortcut : nullptr)
                         : bn.Backward(dy, &tape);
  EXPECT_TRUE(tape.empty());

  const size_t size = static_cast<size_t>(x.num_elements());
  std::vector<double> y_want(size), y_mag(size), dx_want(size), dx_mag(size);
  std::vector<double> dg_want(ch), dg_mag(ch), db_want(ch), db_mag(ch);
  std::vector<double> rm_want(ch), rm_mag(ch), rv_want(ch), rv_mag(ch);
  for (int64_t k = 0; k < ch; ++k) {
    double mean = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < hw; ++j) mean += x.data()[index(i, k, j)];
    }
    mean /= static_cast<double>(m);
    double var = 0.0, abs_x = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < hw; ++j) {
        const double d = x.data()[index(i, k, j)] - mean;
        var += d * d;
        abs_x = std::max<double>(abs_x, std::fabs(x.data()[index(i, k, j)]));
      }
    }
    var /= static_cast<double>(m);
    const double inv_std = 1.0 / std::sqrt(var + eps);
    const double g = gamma->value.data()[k], b = beta->value.data()[k];
    // The float32 mean and E[x²] − mean² lose up to u·|x|² of variance.
    const double xhat_err = (abs_x + std::fabs(mean)) * inv_std *
                            (1.0 + abs_x * abs_x * inv_std * inv_std);

    // d: dy through the ReLU mask. The fp32 output decides the mask: the
    // forward check bounds how far it is from the reference's.
    double sum_d = 0.0, sum_dxhat = 0.0, abs_d = 0.0, abs_dxhat = 0.0;
    std::vector<double> xhat(static_cast<size_t>(m)), d(static_cast<size_t>(m));
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < hw; ++j) {
        const size_t e = index(i, k, j);
        const size_t r = static_cast<size_t>(i * hw + j);
        xhat[r] = (x.data()[e] - mean) * inv_std;
        y_want[e] = finish(g * xhat[r] + b, e);
        y_mag[e] = std::fabs(g) * xhat_err + std::fabs(b) +
                   (residual ? std::fabs(shortcut.data()[e]) : 0.0);
        d[r] = (!relu || y.data()[e] > 0.0f) ? dy.data()[e] : 0.0;
        sum_d += d[r];
        sum_dxhat += d[r] * xhat[r];
        abs_d += std::fabs(d[r]);
        abs_dxhat += std::fabs(d[r]) * xhat_err;
        if (residual) {
          ASSERT_EQ(grad_shortcut.data()[e], static_cast<float>(d[r]))
              << "shortcut gradient element " << e;
        }
      }
    }
    dg_want[k] = sum_dxhat;
    dg_mag[k] = abs_dxhat;
    db_want[k] = sum_d;
    db_mag[k] = abs_d;
    const double scale = g * inv_std / static_cast<double>(m);
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < hw; ++j) {
        const size_t e = index(i, k, j);
        const size_t r = static_cast<size_t>(i * hw + j);
        dx_want[e] = scale * (m * d[r] - sum_d - xhat[r] * sum_dxhat);
        dx_mag[e] = std::fabs(g) * inv_std *
                    (std::fabs(d[r]) + abs_d / m + xhat_err * abs_dxhat / m) *
                    (1.0 + abs_x * abs_x * inv_std * inv_std);
      }
    }
    rm_want[k] = momentum * running_mean0.data()[k] + (1.0 - momentum) * mean;
    rm_mag[k] = std::fabs(running_mean0.data()[k]) + abs_x;
    rv_want[k] = momentum * running_var0.data()[k] + (1.0 - momentum) * var;
    rv_mag[k] = running_var0.data()[k] + abs_x * abs_x;
  }
  ExpectWithin(y.data(), y_want, y_mag, 16, kFp32Unit, "y");
  ExpectWithin(dx.data(), dx_want, dx_mag, 32, kFp32Unit, "dx");
  ExpectWithin(gamma->grad.data(), dg_want, dg_mag, m + 8.0, kFp32Unit,
               "dgamma");
  ExpectWithin(beta->grad.data(), db_want, db_mag, 2, kFp32Unit, "dbeta");
  ExpectWithin(params[2]->value.data(), rm_want, rm_mag, 8, kFp32Unit,
               "running mean");
  ExpectWithin(params[3]->value.data(), rv_want, rv_mag, 8, kFp32Unit,
               "running variance");
}

std::vector<BnCase> BatchNormCases() {
  std::vector<BnCase> cases;
  for (Fusion f : {Fusion::kNone, Fusion::kRelu, Fusion::kResidualRelu}) {
    cases.push_back({Shape{1, 4, 3, 3}, f});       // N = 1
    cases.push_back({Shape{6, 5, 1, 1}, f});       // 1×1 planes
    cases.push_back({Shape{1, 3, 1, 1}, f});       // one element a channel
    cases.push_back({Shape{7, 3, 2, 3}, f});       // C = 3 < group
    cases.push_back({Shape{4, 5, 3, 2}, f, true}); // C = 5, variance 0
    if (f == Fusion::kNone) {
      cases.push_back({Shape{9, 6}, f});           // rank 2
      cases.push_back({Shape{1, 5}, f});           // rank 2, N = 1
      cases.push_back({Shape{8, 3}, f, true});
    }
  }
  return cases;
}

TEST(BatchNormDifferentialTest, DegenerateShapes) {
  uint64_t seed = 100;
  for (const BnCase& c : BatchNormCases()) CheckBatchNorm(c, seed++);
}

TEST(BatchNormDifferentialTest, SeededRandomShapes) {
  Rng shapes(2024);
  for (int trial = 0; trial < 24; ++trial) {
    const Fusion f = static_cast<Fusion>(trial % 3);
    const int64_t n = 1 + shapes.UniformInt(8);
    const int64_t c = 1 + shapes.UniformInt(11);
    const int64_t h = 1 + shapes.UniformInt(6);
    const int64_t w = 1 + shapes.UniformInt(6);
    CheckBatchNorm({Shape{n, c, h, w}, f}, 300 + static_cast<uint64_t>(trial));
  }
}

// ---------------------------------------------------------------------------
// ReLU, GlobalAvgPool2d, Dense
// ---------------------------------------------------------------------------

TEST(ReluDifferentialTest, ForwardAndMaskAreExact) {
  for (const Shape& shape : {Shape{1, 1}, Shape{3, 5, 2, 2}, Shape{2, 7}}) {
    Rng rng(shape.num_elements());
    const Tensor x = Random(shape, &rng);
    const Tensor dy = Random(shape, &rng);
    ReLU relu;
    Tape tape;
    const Tensor y = relu.Forward(x, &tape);
    const Tensor dx = relu.Backward(dy, &tape);
    for (int64_t i = 0; i < x.num_elements(); ++i) {
      const bool on = x.data()[i] > 0.0f;
      ASSERT_EQ(y.data()[i], on ? x.data()[i] : 0.0f) << i;
      ASSERT_EQ(dx.data()[i], on ? dy.data()[i] : 0.0f) << i;
    }
  }
}

TEST(GlobalAvgPoolDifferentialTest, MatchesFloat64Reference) {
  for (const Shape& shape :
       {Shape{1, 1, 1, 1}, Shape{1, 3, 4, 4}, Shape{5, 2, 1, 3},
        Shape{4, 6, 5, 7}}) {
    Rng rng(shape.num_elements() + 7);
    const Tensor x = Random(shape, &rng, 1.0f, 0.5f);
    const int64_t nc = shape.dim(0) * shape.dim(1);
    const int64_t hw = shape.dim(2) * shape.dim(3);
    const Tensor dy = Random(Shape{shape.dim(0), shape.dim(1)}, &rng);
    GlobalAvgPool2d pool;
    Tape tape;
    const Tensor y = pool.Forward(x, &tape);
    const Tensor dx = pool.Backward(dy, &tape);
    std::vector<double> y_want(nc), y_mag(nc);
    std::vector<double> dx_want(nc * hw), dx_mag(nc * hw);
    for (int64_t r = 0; r < nc; ++r) {
      for (int64_t j = 0; j < hw; ++j) {
        y_want[r] += x.data()[r * hw + j] / static_cast<double>(hw);
        y_mag[r] += std::fabs(x.data()[r * hw + j]) / static_cast<double>(hw);
        dx_want[r * hw + j] = dy.data()[r] / static_cast<double>(hw);
        dx_mag[r * hw + j] = std::fabs(dx_want[r * hw + j]);
      }
    }
    ExpectWithin(y.data(), y_want, y_mag, 2, kFp32Unit, "y");
    ExpectWithin(dx.data(), dx_want, dx_mag, 2, kFp32Unit, "dx");
  }
}

void CheckDense(int64_t n, int64_t in, int64_t out, uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "dense " << n << "x" << in << " -> "
                                    << out);
  Rng rng(seed);
  Dense dense(in, out, &rng);
  const std::vector<Parameter*> params = dense.Parameters();
  params[1]->value.FillNormal(&rng, 0.0f, 0.5f);  // nonzero bias
  const Tensor& w = params[0]->value;
  const Tensor& b = params[1]->value;
  const Tensor x = Random(Shape{n, in}, &rng);
  const Tensor dy = Random(Shape{n, out}, &rng);

  Tape tape;
  const Tensor y = dense.Forward(x, &tape);
  const Tensor dx = dense.Backward(dy, &tape);
  std::vector<double> y_want(n * out), y_mag(n * out);
  std::vector<double> dx_want(n * in), dx_mag(n * in);
  std::vector<double> dw_want(out * in), dw_mag(out * in);
  std::vector<double> db_want(out), db_mag(out);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t o = 0; o < out; ++o) {
      double acc = b.data()[o], mag = std::fabs(b.data()[o]);
      for (int64_t k = 0; k < in; ++k) {
        acc += static_cast<double>(x.data()[i * in + k]) * w.data()[o * in + k];
        mag += std::fabs(x.data()[i * in + k] * w.data()[o * in + k]);
      }
      y_want[i * out + o] = acc;
      y_mag[i * out + o] = mag;
      const double g = dy.data()[i * out + o];
      db_want[o] += g;
      db_mag[o] += std::fabs(g);
      for (int64_t k = 0; k < in; ++k) {
        dw_want[o * in + k] += g * x.data()[i * in + k];
        dw_mag[o * in + k] += std::fabs(g * x.data()[i * in + k]);
        dx_want[i * in + k] += g * w.data()[o * in + k];
        dx_mag[i * in + k] += std::fabs(g * w.data()[o * in + k]);
      }
    }
  }
  ExpectWithin(y.data(), y_want, y_mag, in + 2.0, kFp32Unit, "y");
  ExpectWithin(dx.data(), dx_want, dx_mag, out + 1.0, kFp32Unit, "dx");
  ExpectWithin(params[0]->grad.data(), dw_want, dw_mag, n + 1.0, kFp32Unit,
               "dW");
  ExpectWithin(params[1]->grad.data(), db_want, db_mag, n + 1.0, kFp32Unit,
               "db");

  // int8 eval: weight codes step by max|w_o|/63, activation codes by the
  // row's range/255; each product is off by at most a step of either
  // factor times the other.
  dense.SetPrecision(Precision::kInt8);
  const Tensor y8 = dense.Forward(x, nullptr);
  std::vector<double> y8_mag(n * out);
  for (int64_t i = 0; i < n; ++i) {
    const float* row = x.data() + i * in;
    const double lo = std::min(0.0f, *std::min_element(row, row + in));
    const double hi = std::max(0.0f, *std::max_element(row, row + in));
    for (int64_t o = 0; o < out; ++o) {
      const float* wrow = w.data() + o * in;
      double wmax = 0.0, sum_x = 0.0, sum_w = 0.0;
      for (int64_t k = 0; k < in; ++k) {
        wmax = std::max(wmax, static_cast<double>(std::fabs(wrow[k])));
        sum_x += std::fabs(row[k]);
        sum_w += std::fabs(wrow[k]);
      }
      y8_mag[i * out + o] = sum_x * wmax / 63.0 +
                            (sum_w + in * wmax / 63.0) * (hi - lo) / 255.0 +
                            (in + 2.0) * kFp32Unit * y_mag[i * out + o];
    }
  }
  ExpectWithin(y8.data(), y_want, y8_mag, 1, 1.0, "int8 y");
}

TEST(DenseDifferentialTest, MatchesFloat64Reference) {
  CheckDense(1, 1, 1, 11);
  CheckDense(1, 7, 3, 12);
  CheckDense(5, 16, 10, 13);
  Rng shapes(77);
  for (int trial = 0; trial < 8; ++trial) {
    CheckDense(1 + shapes.UniformInt(12), 1 + shapes.UniformInt(40),
               1 + shapes.UniformInt(12), 20 + static_cast<uint64_t>(trial));
  }
}

// ---------------------------------------------------------------------------
// Conv1d, MaxOverTime
// ---------------------------------------------------------------------------

struct Conv1dCase {
  int64_t n, cin, cout, len, kernel;
};

// ExpectWithin where the reference is finite; where it is NaN or ±Inf, the
// fp32 value must be non-finite too.
void ExpectWithinOrNonFinite(const float* got, const std::vector<double>& want,
                             const std::vector<double>& mag, double terms,
                             const std::string& what) {
  for (size_t i = 0; i < want.size(); ++i) {
    if (!std::isfinite(want[i])) {
      ASSERT_FALSE(std::isfinite(got[i]))
          << what << " element " << i << ": got " << got[i] << ", want "
          << want[i];
      continue;
    }
    const double bound = terms * kFp32Unit * mag[i] + 1e-30;
    ASSERT_LE(std::fabs(got[i] - want[i]), bound)
        << what << " element " << i << ": got " << got[i] << ", want "
        << want[i] << ", magnitude " << mag[i];
  }
}

// Runs a training Forward and Backward of a Conv1d (stride 1, no padding)
// against the float64 reference. `edit`, when given, changes the input, the
// weights and dY before the layer runs.
void CheckConv1d(
    const Conv1dCase& c, uint64_t seed,
    const std::function<void(Tensor* x, Tensor* w, Tensor* dy)>& edit = {}) {
  SCOPED_TRACE(::testing::Message()
               << "conv1d n=" << c.n << " " << c.cin << "->" << c.cout
               << " len=" << c.len << " k=" << c.kernel);
  Rng rng(seed);
  Conv1d conv(c.cin, c.cout, c.kernel, /*use_bias=*/true, &rng);
  const std::vector<Parameter*> params = conv.Parameters();
  params[1]->value.FillNormal(&rng, 0.0f, 0.5f);  // nonzero bias
  Tensor& w = params[0]->value;
  const Tensor& b = params[1]->value;
  const int64_t olen = c.len - c.kernel + 1;
  ASSERT_GT(olen, 0);
  Tensor x = Random(Shape{c.n, c.cin, c.len}, &rng);
  Tensor dy = Random(Shape{c.n, c.cout, olen}, &rng);
  if (edit) edit(&x, &w, &dy);

  Tape tape;
  const Tensor y = conv.Forward(x, &tape);
  ASSERT_EQ(y.shape(), dy.shape());
  const Tensor dx = conv.Backward(dy, &tape);
  const auto xi = [&](int64_t i, int64_t ch, int64_t t) {
    return static_cast<size_t>((i * c.cin + ch) * c.len + t);
  };
  const auto wi = [&](int64_t o, int64_t ch, int64_t k) {
    return static_cast<size_t>((o * c.cin + ch) * c.kernel + k);
  };
  const size_t ysize = static_cast<size_t>(y.num_elements());
  std::vector<double> y_want(ysize), y_mag(ysize);
  std::vector<double> dx_want(x.num_elements()), dx_mag(x.num_elements());
  std::vector<double> dw_want(w.num_elements()), dw_mag(w.num_elements());
  std::vector<double> db_want(c.cout), db_mag(c.cout);
  for (int64_t i = 0; i < c.n; ++i) {
    for (int64_t o = 0; o < c.cout; ++o) {
      for (int64_t t = 0; t < olen; ++t) {
        const size_t e = static_cast<size_t>((i * c.cout + o) * olen + t);
        double acc = b.data()[o], mag = std::fabs(b.data()[o]);
        const double g = dy.data()[e];
        db_want[o] += g;
        db_mag[o] += std::fabs(g);
        for (int64_t ch = 0; ch < c.cin; ++ch) {
          for (int64_t k = 0; k < c.kernel; ++k) {
            const double xv = x.data()[xi(i, ch, t + k)];
            const double wv = w.data()[wi(o, ch, k)];
            acc += xv * wv;
            mag += std::fabs(xv * wv);
            dw_want[wi(o, ch, k)] += g * xv;
            dw_mag[wi(o, ch, k)] += std::fabs(g * xv);
            dx_want[xi(i, ch, t + k)] += g * wv;
            dx_mag[xi(i, ch, t + k)] += std::fabs(g * wv);
          }
        }
        y_want[e] = acc;
        y_mag[e] = mag;
      }
    }
  }
  ExpectWithinOrNonFinite(y.data(), y_want, y_mag, c.cin * c.kernel + 2.0,
                          "y");
  ExpectWithinOrNonFinite(dx.data(), dx_want, dx_mag,
                          c.cout * c.kernel + 1.0, "dx");
  ExpectWithinOrNonFinite(params[0]->grad.data(), dw_want, dw_mag,
                          c.n * olen + 1.0, "dW");
  ExpectWithinOrNonFinite(params[1]->grad.data(), db_want, db_mag, c.n + 1.0,
                          "db");
}

TEST(Conv1dDifferentialTest, DegenerateShapes) {
  const Conv1dCase cases[] = {
      {1, 1, 1, 1, 1},     // one of everything
      {2, 3, 4, 5, 5},     // kernel = sequence: one output position
      {3, 2, 3, 4, 4},     // kernel = sequence
      {2, 2, 2, 3, 3},     // kernel = sequence
      {1, 3, 2, 7, 3},
      {2, 2, 3, 8, 3},
      {3, 4, 2, 9, 4},
      {1, 2, 5, 10, 5},
      {4, 1, 1, 6, 2},     // single channels
      {33, 8, 6, 32, 5},   // TextCNN tiny, two 16-sample tiles and a tail
      {3, 60, 4, 12, 5},   // depth 300: more than one kKC block
  };
  uint64_t seed = 500;
  for (const Conv1dCase& c : cases) CheckConv1d(c, seed++);
}

TEST(Conv1dDifferentialTest, SeededRandomShapes) {
  Rng shapes(4242);
  for (int trial = 0; trial < 24; ++trial) {
    Conv1dCase c;
    c.n = 1 + shapes.UniformInt(5);
    c.cin = 1 + shapes.UniformInt(8);
    c.cout = 1 + shapes.UniformInt(8);
    c.kernel = 1 + shapes.UniformInt(5);
    c.len = c.kernel + shapes.UniformInt(12);  // at least one output
    CheckConv1d(c, 600 + static_cast<uint64_t>(trial));
  }
}

// NaN in the input and +Inf in the weights reach dW and dX even where dY is
// zero: 0·NaN and 0·Inf are NaN, so no product may be skipped for a zero
// gradient (DESIGN.md §10).
TEST(Conv1dDifferentialTest, NonFiniteValuesReachTheGradientsThroughZeroDy) {
  const Conv1dCase c{2, 3, 4, 9, 3};
  CheckConv1d(c, 700, [&](Tensor* x, Tensor* w, Tensor* dy) {
    const int64_t olen = c.len - c.kernel + 1;
    // x[0][1][4] is read by outputs t = 2..4 of sample 0; their dY is zero
    // in every channel.
    x->data()[(0 * c.cin + 1) * c.len + 4] = std::nanf("");
    for (int64_t o = 0; o < c.cout; ++o) {
      for (int64_t t = 2; t <= 4; ++t) dy->data()[o * olen + t] = 0.0f;
    }
    // w[2][0][1] = +Inf; sample 1's dY is zero in channel 2, so the Inf
    // reaches its dX only as 0·Inf.
    w->data()[(2 * c.cin + 0) * c.kernel + 1] =
        std::numeric_limits<float>::infinity();
    std::fill_n(dy->data() + (1 * c.cout + 2) * olen, olen, 0.0f);
  });
}

TEST(MaxOverTimeDifferentialTest, MaximaAndFirstOfTiedGetTheGradient) {
  for (const Shape& shape : {Shape{1, 1, 1}, Shape{2, 3, 1}, Shape{3, 4, 7},
                             Shape{5, 2, 16}}) {
    SCOPED_TRACE(::testing::Message() << "shape " << shape.dim(0) << "x"
                                      << shape.dim(1) << "x" << shape.dim(2));
    Rng rng(shape.num_elements() + 31);
    Tensor x = Random(shape, &rng);
    const int64_t rows = shape.dim(0) * shape.dim(1);
    const int64_t len = shape.dim(2);
    // Quantize some rows to a few levels so their maxima tie, and make one
    // row constant: the gradient must go to the first maximum.
    for (int64_t r = 0; r < rows; r += 2) {
      float* row = x.data() + r * len;
      for (int64_t t = 0; t < len; ++t) row[t] = std::round(row[t]);
    }
    std::fill_n(x.data() + (rows - 1) * len, len, -2.5f);
    const Tensor dy = Random(Shape{shape.dim(0), shape.dim(1)}, &rng);
    const Tensor y = MaxOverTimeForward(x);
    const Tensor dx = MaxOverTimeBackward(x, dy);
    for (int64_t r = 0; r < rows; ++r) {
      const float* row = x.data() + r * len;
      double best = row[0];
      int64_t first = 0;
      for (int64_t t = 1; t < len; ++t) {
        if (static_cast<double>(row[t]) > best) {
          best = row[t];
          first = t;
        }
      }
      ASSERT_EQ(y.data()[r], best) << "row " << r;
      for (int64_t t = 0; t < len; ++t) {
        ASSERT_EQ(dx.data()[r * len + t], t == first ? dy.data()[r] : 0.0f)
            << "row " << r << " position " << t;
      }
    }
  }
}

}  // namespace
}  // namespace edde
