#include "nn/batchnorm.h"

#include <cmath>
#include <utility>

#include "utils/arena.h"
#include "utils/logging.h"

namespace edde {

namespace {

// A BatchNorm input as (N, C, HW) with HW = 1 for rank 2: element (i, c, j)
// sits at (i·C + c)·HW + j, and channel c has N·HW of them.
struct Layout {
  int64_t n, channels, hw;

  explicit Layout(const Shape& shape)
      : n(shape.dim(0)),
        channels(shape.dim(1)),
        hw(shape.rank() == 4 ? shape.dim(2) * shape.dim(3) : 1) {
    EDDE_CHECK(shape.rank() == 2 || shape.rank() == 4)
        << "BatchNorm expects rank 2 or 4";
  }
  int64_t per_channel() const { return n * hw; }
};

// Channels summed side by side by ChannelSums.
constexpr int kGroup = 4;

template <int G, typename Terms>
void SumGroup(const Layout& l, int64_t c0, const Terms& terms, double* first,
              double* second) {
  double s1[G] = {};
  double s2[G] = {};
  for (int64_t i = 0; i < l.n; ++i) {
    const int64_t base = (i * l.channels + c0) * l.hw;
    for (int64_t j = 0; j < l.hw; ++j) {
#pragma GCC unroll 8
      for (int g = 0; g < G; ++g) {
        const auto [t1, t2] = terms(base + g * l.hw + j);
        s1[g] += t1;
        s2[g] += t2;
      }
    }
  }
  for (int g = 0; g < G; ++g) {
    first[c0 + g] = s1[g];
    second[c0 + g] = s2[g];
  }
}

// The two per-channel double sums of BatchNorm: first[c] and second[c] add
// up terms(k) over channel c's elements k. Each channel sums in its own
// (n, h·w) order, exactly as a loop over that channel alone; kGroup
// channels share the loop only to keep 2·kGroup additions in flight
// instead of two dependency chains.
template <typename Terms>
void ChannelSums(const Layout& l, const Terms& terms, double* first,
                 double* second) {
  int64_t c0 = 0;
  for (; c0 + kGroup <= l.channels; c0 += kGroup) {
    SumGroup<kGroup>(l, c0, terms, first, second);
  }
  for (; c0 < l.channels; ++c0) SumGroup<1>(l, c0, terms, first, second);
}

// y = γ·x̂ + β with x̂ = (x − mean)·inv_std, then + shortcut and ReLU as
// asked; x̂ is kept in training.
template <bool kTrain, bool kShortcut, bool kRelu>
void NormalizePass(const Layout& l, const float* x, const float* shortcut,
                   const float* mean, const float* inv_std,
                   const float* gamma, const float* beta, float* xhat,
                   float* y) {
  for (int64_t i = 0; i < l.n; ++i) {
    for (int64_t c = 0; c < l.channels; ++c) {
      const int64_t base = (i * l.channels + c) * l.hw;
      const float mu = mean[c];
      const float is = inv_std[c];
      const float g = gamma[c];
      const float b = beta[c];
#pragma omp simd
      for (int64_t j = base; j < base + l.hw; ++j) {
        const float xh = (x[j] - mu) * is;
        if (kTrain) xhat[j] = xh;
        float v = g * xh + b;
        if (kShortcut) v = v + shortcut[j];
        if (kRelu) v = v > 0.0f ? v : 0.0f;
        y[j] = v;
      }
    }
  }
}

template <bool kTrain>
void NormalizePass(const Layout& l, const float* x, const float* shortcut,
                   bool relu, const float* mean, const float* inv_std,
                   const float* gamma, const float* beta, float* xhat,
                   float* y) {
  if (shortcut != nullptr) {
    NormalizePass<kTrain, true, true>(l, x, shortcut, mean, inv_std, gamma,
                                      beta, xhat, y);
  } else if (relu) {
    NormalizePass<kTrain, false, true>(l, x, shortcut, mean, inv_std, gamma,
                                       beta, xhat, y);
  } else {
    NormalizePass<kTrain, false, false>(l, x, shortcut, mean, inv_std, gamma,
                                        beta, xhat, y);
  }
}

// d = dy through the ReLU mask: dy where y > 0, else 0. Branch-free: a
// load under the condition compiles to a branch per element, which
// mispredicts on random signs.
void MaskPass(int64_t size, const float* dy, const float* y, float* d) {
#pragma omp simd
  for (int64_t i = 0; i < size; ++i) {
    const float g = dy[i];
    d[i] = y[i] > 0.0f ? g : 0.0f;
  }
}

// dx = k·(m·d − m·mean(d) − x̂·m·mean(d·x̂)) per channel; `d` may be `dx`.
void NormalizeBackwardPass(const Layout& l, const float* d, const float* xhat,
                           const float* k, const float* mean_dy,
                           const float* mean_dy_xhat, float* dx) {
  const float m = static_cast<float>(l.per_channel());
  for (int64_t i = 0; i < l.n; ++i) {
    for (int64_t c = 0; c < l.channels; ++c) {
      const int64_t base = (i * l.channels + c) * l.hw;
      const float kc = k[c];
      const float mdy = mean_dy[c];
      const float mdyx = mean_dy_xhat[c];
#pragma omp simd
      for (int64_t j = base; j < base + l.hw; ++j) {
        dx[j] = kc * (m * d[j] - m * mdy - xhat[j] * m * mdyx);
      }
    }
  }
}

}  // namespace

BatchNorm::BatchNorm(int64_t channels, float momentum, float epsilon)
    : channels_(channels), momentum_(momentum), epsilon_(epsilon) {
  gamma_.name = "gamma";
  gamma_.value = Tensor(Shape{channels}, 1.0f);
  InitGrad(&gamma_);
  beta_.name = "beta";
  beta_.value = Tensor(Shape{channels}, 0.0f);
  InitGrad(&beta_);
  running_mean_.name = "running_mean";
  running_mean_.value = Tensor(Shape{channels}, 0.0f);
  running_mean_.trainable = false;
  running_var_.name = "running_var";
  running_var_.value = Tensor(Shape{channels}, 1.0f);
  running_var_.trainable = false;
}

Tensor BatchNorm::ForwardImpl(const Tensor& input, Tape* tape) {
  return Normalize(input, nullptr, /*relu=*/false, tape);
}

Tensor BatchNorm::BackwardImpl(const Tensor& grad_output, Tape* tape) {
  return NormalizeBackward(grad_output, /*relu=*/false, tape, nullptr);
}

Tensor BatchNorm::ForwardRelu(const Tensor& input, const Tensor& shortcut,
                              Tape* tape) {
  if (shortcut.empty()) return Normalize(input, nullptr, /*relu=*/true, tape);
  EDDE_CHECK(shortcut.shape() == input.shape());
  return Normalize(input, &shortcut, /*relu=*/true, tape);
}

Tensor BatchNorm::BackwardRelu(const Tensor& grad_output, Tape* tape,
                               Tensor* grad_shortcut) {
  return NormalizeBackward(grad_output, /*relu=*/true, tape, grad_shortcut);
}

Tensor BatchNorm::Normalize(const Tensor& input, const Tensor* shortcut,
                            bool relu, Tape* tape) {
  const Layout l(input.shape());
  EDDE_CHECK_EQ(l.channels, channels_);
  Tensor output = NewTensor(tape, input.shape());
  ArenaScope scope;
  float* mean = scope.AllocFloats(channels_);
  float* inv_std = nullptr;
  float* xhat = nullptr;
  if (tape == nullptr) {
    inv_std = scope.AllocFloats(channels_);
    for (int64_t c = 0; c < channels_; ++c) {
      mean[c] = running_mean_.value.data()[c];
      inv_std[c] = 1.0f / std::sqrt(running_var_.value.data()[c] + epsilon_);
    }
  } else {
    Tensor xhat_t = tape->NewTensor(input.shape());
    Tensor inv_std_t = tape->NewTensor(Shape{channels_});
    xhat = xhat_t.data();
    inv_std = inv_std_t.data();
    tape->Save(xhat_t);
    tape->Save(inv_std_t);
    if (relu) tape->Save(output);

    double* sum = static_cast<double*>(
        scope.Alloc(sizeof(double) * static_cast<size_t>(channels_)));
    double* sq = static_cast<double*>(
        scope.Alloc(sizeof(double) * static_cast<size_t>(channels_)));
    const float* x = input.data();
    ChannelSums(
        l,
        [x](int64_t k) {
          return std::pair<double, double>(x[k],
                                           static_cast<double>(x[k]) * x[k]);
        },
        sum, sq);
    const int64_t m = l.per_channel();
    float* rmean = running_mean_.value.data();
    float* rvar = running_var_.value.data();
    for (int64_t c = 0; c < channels_; ++c) {
      mean[c] = static_cast<float>(sum[c] / m);
      const float var = static_cast<float>(
          sq[c] / m - static_cast<double>(mean[c]) * mean[c]);
      const float safe_var = var > 0.0f ? var : 0.0f;
      inv_std[c] = 1.0f / std::sqrt(safe_var + epsilon_);
      // Update running statistics (exponential moving average).
      rmean[c] = momentum_ * rmean[c] + (1.0f - momentum_) * mean[c];
      rvar[c] = momentum_ * rvar[c] + (1.0f - momentum_) * safe_var;
    }
  }

  const float* s = shortcut != nullptr ? shortcut->data() : nullptr;
  if (tape != nullptr) {
    NormalizePass<true>(l, input.data(), s, relu, mean, inv_std,
                        gamma_.value.data(), beta_.value.data(), xhat,
                        output.data());
  } else {
    NormalizePass<false>(l, input.data(), s, relu, mean, inv_std,
                         gamma_.value.data(), beta_.value.data(), nullptr,
                         output.data());
  }
  return output;
}

Tensor BatchNorm::NormalizeBackward(const Tensor& grad_output, bool relu,
                                    Tape* tape, Tensor* grad_shortcut) {
  const Tensor output = relu ? tape->Take() : Tensor();
  const Tensor inv_std = tape->Take();
  const Tensor xhat = tape->Take();
  EDDE_CHECK(grad_output.shape() == xhat.shape());
  const Layout l(xhat.shape());
  const int64_t m = l.per_channel();
  Tensor grad_input = tape->NewTensor(xhat.shape());
  if (grad_shortcut != nullptr) *grad_shortcut = tape->NewTensor(xhat.shape());

  // d: dy through the ReLU mask, kept where the shortcut path reads it,
  // else staged in dx, which the last pass overwrites in place.
  const float* d = grad_output.data();
  if (relu) {
    float* masked = grad_shortcut != nullptr ? grad_shortcut->data()
                                             : grad_input.data();
    MaskPass(xhat.num_elements(), d, output.data(), masked);
    d = masked;
  } else {
    EDDE_CHECK(grad_shortcut == nullptr)
        << "a shortcut gradient needs the fused ReLU";
  }

  ArenaScope scope;
  double* sum_dy = static_cast<double*>(
      scope.Alloc(sizeof(double) * static_cast<size_t>(channels_)));
  double* sum_dy_xhat = static_cast<double*>(
      scope.Alloc(sizeof(double) * static_cast<size_t>(channels_)));
  const float* xh = xhat.data();
  ChannelSums(
      l,
      [d, xh](int64_t k) {
        return std::pair<double, double>(d[k],
                                         static_cast<double>(d[k]) * xh[k]);
      },
      sum_dy, sum_dy_xhat);

  float* k = scope.AllocFloats(channels_);
  float* mean_dy = scope.AllocFloats(channels_);
  float* mean_dy_xhat = scope.AllocFloats(channels_);
  for (int64_t c = 0; c < channels_; ++c) {
    gamma_.grad.data()[c] += static_cast<float>(sum_dy_xhat[c]);
    beta_.grad.data()[c] += static_cast<float>(sum_dy[c]);
    k[c] = gamma_.value.data()[c] * inv_std.data()[c] / static_cast<float>(m);
    mean_dy[c] = static_cast<float>(sum_dy[c] / m);
    mean_dy_xhat[c] = static_cast<float>(sum_dy_xhat[c] / m);
  }
  NormalizeBackwardPass(l, d, xh, k, mean_dy, mean_dy_xhat, grad_input.data());
  return grad_input;
}

void BatchNorm::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&gamma_);
  out->push_back(&beta_);
  out->push_back(&running_mean_);
  out->push_back(&running_var_);
}

std::string BatchNorm::name() const {
  return "batchnorm(" + std::to_string(channels_) + ")";
}

}  // namespace edde
