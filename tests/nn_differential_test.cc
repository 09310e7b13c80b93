// Differential checker for the layers a training step runs fused or on the
// tape: BatchNorm (plain, with the fused ReLU, with the fused residual
// addition and ReLU), ReLU, GlobalAvgPool2d, Dense, Conv1d, TextCNN's
// max-over-time pooling, Embedding, Dropout and the training loss. Each fp32
// forward, input gradient and parameter gradient is compared with a naive
// float64 reference, within a bound for its precision, on seeded random
// shapes and on degenerate ones (N = 1, 1×1 planes, rank-2 input, channel
// counts that do not fill BatchNorm's channel group, a constant channel; a
// Conv1d kernel as long as the sequence, one output position, NaN and Inf
// behind a zero dY; tied maxima; repeated and out-of-range token ids;
// dropout rate 0; two classes, saturated logits, p == q).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/embedding.h"
#include "nn/loss.h"
#include "nn/pooling.h"
#include "nn/tape.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

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

  // Packed for eval: the same bound, and the unpacked eval's bits.
  const Tensor y_eval = dense.Forward(x, nullptr);
  dense.PackForEval();
  const Tensor y_packed = dense.Forward(x, nullptr);
  ExpectWithin(y_packed.data(), y_want, y_mag, in + 2.0, kFp32Unit,
               "packed y");
  EXPECT_EQ(std::memcmp(y_packed.data(), y_eval.data(),
                        sizeof(float) * static_cast<size_t>(n * out)),
            0);
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

// ---------------------------------------------------------------------------
// Embedding, Dropout
// ---------------------------------------------------------------------------

// (n, len) token ids drawn from [0, vocab), as floats.
Tensor RandomIds(int64_t n, int64_t len, int64_t vocab, Rng* rng) {
  Tensor ids(Shape{n, len});
  for (int64_t i = 0; i < ids.num_elements(); ++i) {
    ids.data()[i] = static_cast<float>(rng->UniformInt(vocab));
  }
  return ids;
}

// The forward is a gather, so exact; the table gradient scatter-adds dY
// over every position that holds the id, compared with a float64 sum.
void CheckEmbedding(int64_t n, int64_t len, int64_t vocab, int64_t dim,
                    uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "embedding " << n << "x" << len
                                    << ", vocab " << vocab << ", dim " << dim);
  Rng rng(seed);
  Embedding embedding(vocab, dim, &rng);
  Parameter* table = embedding.Parameters()[0];
  const Tensor ids = RandomIds(n, len, vocab, &rng);
  const Tensor dy = Random(Shape{n, dim, len}, &rng);
  Tape tape;
  const Tensor y = embedding.Forward(ids, &tape);
  ASSERT_TRUE(y.shape() == (Shape{n, dim, len}));
  EXPECT_TRUE(embedding.Backward(dy, &tape).empty());
  std::vector<double> dw_want(static_cast<size_t>(vocab * dim));
  std::vector<double> dw_mag(dw_want.size());
  std::vector<double> uses(static_cast<size_t>(vocab));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t t = 0; t < len; ++t) {
      const auto id = static_cast<int64_t>(ids.data()[i * len + t]);
      uses[static_cast<size_t>(id)] += 1.0;
      for (int64_t e = 0; e < dim; ++e) {
        const int64_t at = (i * dim + e) * len + t;
        ASSERT_EQ(y.data()[at], table->value.data()[id * dim + e])
            << "sample " << i << " position " << t << " dim " << e;
        dw_want[static_cast<size_t>(id * dim + e)] += dy.data()[at];
        dw_mag[static_cast<size_t>(id * dim + e)] += std::fabs(dy.data()[at]);
      }
    }
  }
  const double most = *std::max_element(uses.begin(), uses.end());
  ExpectWithin(table->grad.data(), dw_want, dw_mag, most + 1.0, kFp32Unit,
               "table gradient");
}

TEST(EmbeddingDifferentialTest, GatherAndScatterAddOfRepeatedIds) {
  CheckEmbedding(1, 1, 1, 1, 61);  // one id, used once
  CheckEmbedding(3, 9, 2, 5, 62);  // two ids over 27 positions
  CheckEmbedding(4, 16, 7, 3, 63);
  CheckEmbedding(8, 32, 60, 16, 64);
}

TEST(EmbeddingDifferentialDeathTest, IdsOutsideTheVocabularyAbort) {
  Rng rng(65);
  Embedding embedding(/*vocab_size=*/5, /*embed_dim=*/3, &rng);
  const std::pair<float, const char*> cases[] = {{-1.0f, "id >= 0"},
                                                 {5.0f, "id < vocab_size_"},
                                                 {std::nanf(""), "isfinite"}};
  for (const auto& [bad, check] : cases) {
    Tensor ids = RandomIds(2, 4, 5, &rng);
    ids.data()[6] = bad;
    EXPECT_DEATH(embedding.Forward(ids, nullptr), check) << "id " << bad;
  }
}

TEST(DropoutDifferentialTest, TapeMaskFromAFixedSeed) {
  constexpr uint64_t kSeed = 71;
  for (const float rate : {0.1f, 0.5f, 0.9f}) {
    SCOPED_TRACE(::testing::Message() << "rate " << rate);
    Rng rng(72);
    const Tensor x = Random(Shape{6, 5, 7}, &rng);
    const Tensor dy = Random(x.shape(), &rng);
    Dropout dropout(rate);
    Tape tape;
    tape.Reset(kSeed);
    const Tensor y = dropout.Forward(x, &tape);
    const Tensor dx = dropout.Backward(dy, &tape);
    // The mask is the tape's stream from kSeed, one Bernoulli(1 − rate)
    // draw per element in order; survivors are scaled by 1/(1 − rate).
    Rng masks(kSeed);
    const float keep = 1.0f - rate;
    const int64_t n = x.num_elements();
    std::vector<double> y_want(static_cast<size_t>(n)), y_mag(y_want.size());
    std::vector<double> dx_want(y_want.size()), dx_mag(y_want.size());
    int64_t kept = 0;
    for (int64_t i = 0; i < n; ++i) {
      const bool on = masks.Bernoulli(keep);
      kept += on ? 1 : 0;
      const size_t at = static_cast<size_t>(i);
      y_want[at] = on ? x.data()[i] / keep : 0.0;
      dx_want[at] = on ? dy.data()[i] / keep : 0.0;
      y_mag[at] = std::fabs(y_want[at]);
      dx_mag[at] = std::fabs(dx_want[at]);
      if (!on) {
        ASSERT_EQ(y.data()[i], 0.0f) << "dropped element " << i;
        ASSERT_EQ(dx.data()[i], 0.0f) << "dropped element " << i;
      }
    }
    EXPECT_GT(kept, 0);
    EXPECT_LT(kept, n);
    // The scale is rounded once and the product once.
    ExpectWithin(y.data(), y_want, y_mag, 2, kFp32Unit, "y");
    ExpectWithin(dx.data(), dx_want, dx_mag, 2, kFp32Unit, "dx");
  }
}

TEST(DropoutDifferentialTest, RateZeroAndEvalAreTheIdentity) {
  Rng rng(73);
  const Tensor x = Random(Shape{4, 9}, &rng);
  const Tensor dy = Random(x.shape(), &rng);
  const size_t bytes = sizeof(float) * static_cast<size_t>(x.num_elements());
  Dropout off(0.0f);
  Tape tape;
  tape.Reset(74);
  const Tensor y = off.Forward(x, &tape);
  const Tensor dx = off.Backward(dy, &tape);
  EXPECT_EQ(std::memcmp(y.data(), x.data(), bytes), 0);
  EXPECT_EQ(std::memcmp(dx.data(), dy.data(), bytes), 0);
  Dropout half(0.5f);
  const Tensor y_eval = half.Forward(x, nullptr);
  EXPECT_EQ(std::memcmp(y_eval.data(), x.data(), bytes), 0);
}

// ---------------------------------------------------------------------------
// SoftmaxCrossEntropyLoss
// ---------------------------------------------------------------------------

// The loss and its logit gradient in float64: per sample i with weight w,
//   L_i = w·(−log p_y − γ‖p − q‖₂ + λ·Σ_c −q_c log p_c),  L = Σ_i L_i / N,
//   ∂L/∂z_c = w/N·(p_c − [c = y] − γ·p_c·(u_c − p·u) + λ·(p_c − q_c)),
// with u = (p − q)/‖p − q‖₂ (Eq. 10/11). log p is taken of max(p, 1e-8),
// the loss's floor for saturated logits. The magnitudes bound the float32
// rounding: p carries a few ulps of relative error (a float exp, one
// reciprocal, one product), and u divides p − q by ‖p − q‖₂, so its error
// grows as 1/‖p − q‖₂.
void CheckLoss(const Tensor& logits, const std::vector<int>& labels,
               const std::vector<float>& weights, const Tensor& ref,
               const LossConfig& config, const std::string& what) {
  SCOPED_TRACE(what);
  const int64_t n = logits.shape().dim(0), k = logits.shape().dim(1);
  const double gamma = config.diversity_gamma, lambda = config.distill_weight;
  const LossResult got =
      SoftmaxCrossEntropyLoss(logits, labels, weights, ref, config);
  std::vector<double> g_want(static_cast<size_t>(n * k));
  std::vector<double> g_mag(g_want.size());
  double loss_want = 0.0, loss_mag = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const float* z = logits.data() + i * k;
    const double w = weights.empty() ? 1.0 : weights[static_cast<size_t>(i)];
    const int y = labels[static_cast<size_t>(i)];
    double mx = z[0];
    for (int64_t c = 1; c < k; ++c) mx = std::max(mx, static_cast<double>(z[c]));
    std::vector<double> p(static_cast<size_t>(k));
    double total = 0.0;
    for (int64_t c = 0; c < k; ++c) total += p[c] = std::exp(z[c] - mx);
    for (double& v : p) v /= total;
    const auto log_p = [&](int64_t c) { return std::log(std::max(p[c], 1e-8)); };
    double li = -log_p(y), li_mag = 1.0 + std::fabs(log_p(y));
    std::vector<double> u(static_cast<size_t>(k), 0.0);
    double d = 0.0, pu = 0.0;
    if (gamma != 0.0) {
      for (int64_t c = 0; c < k; ++c) {
        const double diff = p[c] - ref.data()[i * k + c];
        d += diff * diff;
      }
      d = std::sqrt(d);
      for (int64_t c = 0; c < k; ++c) {
        u[c] = (p[c] - ref.data()[i * k + c]) / d;
        pu += p[c] * u[c];
      }
      li -= gamma * d;
      li_mag += gamma * (1.0 + d);
    }
    for (int64_t c = 0; c < k; ++c) {
      const double q = lambda != 0.0 ? ref.data()[i * k + c] : 0.0;
      if (lambda != 0.0) {
        li += lambda * -q * log_p(c);
        li_mag += lambda * q * (1.0 + std::fabs(log_p(c)));
      }
      const double onehot = c == y ? 1.0 : 0.0;
      const size_t e = static_cast<size_t>(i * k + c);
      g_want[e] = w / n *
                  (p[c] - onehot - gamma * p[c] * (u[c] - pu) +
                   lambda * (p[c] - q));
      const double u_mag =
          gamma != 0.0 ? std::fabs(u[c]) + std::fabs(pu) + 4.0 / d + 4.0 : 0.0;
      g_mag[e] = std::fabs(w) / n *
                 (p[c] + onehot + gamma * p[c] * u_mag + lambda * (p[c] + q));
    }
    loss_want += w * li / n;
    loss_mag += std::fabs(w) * li_mag / n;
  }
  for (int64_t e = 0; e < n * k; ++e) {
    ASSERT_TRUE(std::isfinite(got.grad_logits.data()[e])) << "element " << e;
  }
  ExpectWithin(got.grad_logits.data(), g_want, g_mag, 64, kFp32Unit, "dz");
  EXPECT_LE(std::fabs(got.loss - loss_want), 64 * kFp32Unit * loss_mag)
      << "loss " << got.loss << ", want " << loss_want;
}

struct LossCase {
  Tensor logits;
  std::vector<int> labels;
  std::vector<float> weights;
  Tensor ref;  ///< a distribution per row
};

LossCase RandomLossCase(int64_t n, int64_t k, float logit_scale, Rng* rng) {
  LossCase c;
  c.logits = Random(Shape{n, k}, rng, logit_scale);
  c.ref = Softmax(Random(Shape{n, k}, rng, 2.0f));
  for (int64_t i = 0; i < n; ++i) {
    c.labels.push_back(static_cast<int>(rng->UniformInt(k)));
    c.weights.push_back(static_cast<float>(rng->Uniform(0.1, 3.0)));
  }
  return c;
}

std::vector<LossConfig> LossConfigs() {
  LossConfig plain, diverse, distill, both;
  diverse.diversity_gamma = 0.5f;
  distill.distill_weight = 0.7f;
  both.diversity_gamma = 0.3f;
  both.distill_weight = 0.4f;
  return {plain, diverse, distill, both};
}

TEST(LossDifferentialTest, SeededRandomShapesAndWeights) {
  Rng rng(91);
  for (int trial = 0; trial < 12; ++trial) {
    const int64_t n = 1 + rng.UniformInt(40), k = 2 + rng.UniformInt(12);
    const LossCase c = RandomLossCase(n, k, 3.0f, &rng);
    for (const LossConfig& config : LossConfigs()) {
      const std::string what = "trial " + std::to_string(trial) + " γ=" +
                               std::to_string(config.diversity_gamma) +
                               " λ=" + std::to_string(config.distill_weight);
      CheckLoss(c.logits, c.labels, c.weights, c.ref, config, what);
      CheckLoss(c.logits, c.labels, {}, c.ref, config, what + " unweighted");
    }
  }
}

TEST(LossDifferentialTest, DegenerateShapesAndSaturatedLogits) {
  Rng rng(92);
  for (const LossConfig& config : LossConfigs()) {
    const LossCase one = RandomLossCase(1, 7, 2.0f, &rng);
    CheckLoss(one.logits, one.labels, one.weights, one.ref, config, "N = 1");
    const LossCase two = RandomLossCase(9, 2, 2.0f, &rng);
    CheckLoss(two.logits, two.labels, two.weights, two.ref, config, "K = 2");
    // |z| ~ 200: p is one-hot to float precision and log p hits the floor.
    const LossCase sat = RandomLossCase(6, 5, 200.0f, &rng);
    CheckLoss(sat.logits, sat.labels, sat.weights, sat.ref, config,
              "saturated");
  }
}

TEST(LossDifferentialTest, EqualDistributionsGiveTheDiversityFreeLoss) {
  // q == p bit for bit (the reference is this member's own softmax):
  // ‖p − q‖₂ = 0 has no gradient, and the loss takes the diversity term's
  // subgradient 0, so γ changes no bit of the loss or the gradient.
  Rng rng(93);
  const LossCase c = RandomLossCase(8, 6, 2.0f, &rng);
  const Tensor q = Softmax(c.logits);
  LossConfig diverse;
  diverse.diversity_gamma = 0.5f;
  const LossResult got =
      SoftmaxCrossEntropyLoss(c.logits, c.labels, c.weights, q, diverse);
  const LossResult plain =
      SoftmaxCrossEntropyLoss(c.logits, c.labels, c.weights, q, LossConfig{});
  EXPECT_EQ(got.loss, plain.loss);
  for (int64_t e = 0; e < got.grad_logits.num_elements(); ++e) {
    ASSERT_TRUE(std::isfinite(got.grad_logits.data()[e]));
  }
  EXPECT_EQ(0, std::memcmp(got.grad_logits.data(), plain.grad_logits.data(),
                           sizeof(float) * static_cast<size_t>(
                                               got.grad_logits.num_elements())));
}

}  // namespace
}  // namespace edde
