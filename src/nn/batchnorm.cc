#include "nn/batchnorm.h"

#include <cmath>

#include "utils/logging.h"

namespace edde {

namespace {

// Iterates the elements of channel `c` for rank-2 (N, C) or rank-4
// (N, C, H, W) tensors, invoking fn(flat_index).
template <typename Fn>
void ForEachInChannel(const Shape& shape, int64_t c, Fn&& fn) {
  if (shape.rank() == 2) {
    const int64_t n = shape.dim(0);
    const int64_t channels = shape.dim(1);
    for (int64_t i = 0; i < n; ++i) fn(i * channels + c);
  } else {
    const int64_t n = shape.dim(0);
    const int64_t channels = shape.dim(1);
    const int64_t hw = shape.dim(2) * shape.dim(3);
    for (int64_t i = 0; i < n; ++i) {
      const int64_t base = (i * channels + c) * hw;
      for (int64_t j = 0; j < hw; ++j) fn(base + j);
    }
  }
}

int64_t ElementsPerChannel(const Shape& shape) {
  if (shape.rank() == 2) return shape.dim(0);
  return shape.dim(0) * shape.dim(2) * shape.dim(3);
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

Tensor BatchNorm::Forward(const Tensor& input, bool training) {
  const int rank = input.shape().rank();
  EDDE_CHECK(rank == 2 || rank == 4) << "BatchNorm expects rank 2 or 4";
  EDDE_CHECK_EQ(input.shape().dim(1), channels_);
  Tensor output(input.shape());
  const float* x = input.data();
  float* y = output.data();

  if (!training) {
    for (int64_t c = 0; c < channels_; ++c) {
      const float mean = running_mean_.value.data()[c];
      const float inv_std =
          1.0f / std::sqrt(running_var_.value.data()[c] + epsilon_);
      const float g = gamma_.value.data()[c];
      const float b = beta_.value.data()[c];
      ForEachInChannel(input.shape(), c, [&](int64_t i) {
        const float xh = (x[i] - mean) * inv_std;
        y[i] = g * xh + b;
      });
    }
    return output;
  }

  const int64_t m = ElementsPerChannel(input.shape());
  cached_xhat_ = Tensor(input.shape());
  batch_inv_std_.assign(static_cast<size_t>(channels_), 0.0f);
  float* xhat = cached_xhat_.data();
  for (int64_t c = 0; c < channels_; ++c) {
    double sum = 0.0, sq = 0.0;
    ForEachInChannel(input.shape(), c, [&](int64_t i) {
      sum += x[i];
      sq += static_cast<double>(x[i]) * x[i];
    });
    const float mean = static_cast<float>(sum / m);
    const float var =
        static_cast<float>(sq / m - static_cast<double>(mean) * mean);
    const float safe_var = var > 0.0f ? var : 0.0f;
    const float inv_std = 1.0f / std::sqrt(safe_var + epsilon_);
    // Update running statistics (exponential moving average).
    running_mean_.value.data()[c] =
        momentum_ * running_mean_.value.data()[c] + (1.0f - momentum_) * mean;
    running_var_.value.data()[c] =
        momentum_ * running_var_.value.data()[c] +
        (1.0f - momentum_) * safe_var;
    batch_inv_std_[static_cast<size_t>(c)] = inv_std;
    const float g = gamma_.value.data()[c];
    const float b = beta_.value.data()[c];
    ForEachInChannel(input.shape(), c, [&](int64_t i) {
      const float xh = (x[i] - mean) * inv_std;
      xhat[i] = xh;
      y[i] = g * xh + b;
    });
  }
  return output;
}

Tensor BatchNorm::Backward(const Tensor& grad_output) {
  EDDE_CHECK(!cached_xhat_.empty()) << "Backward before Forward";
  const Shape& shape = cached_xhat_.shape();
  EDDE_CHECK(grad_output.shape() == shape);
  const int64_t m = ElementsPerChannel(shape);
  Tensor grad_input(shape);
  const float* dy = grad_output.data();
  const float* xhat = cached_xhat_.data();
  float* dx = grad_input.data();

  for (int64_t c = 0; c < channels_; ++c) {
    const float g = gamma_.value.data()[c];
    const float inv_std = batch_inv_std_[static_cast<size_t>(c)];
    double sum_dy = 0.0, sum_dy_xhat = 0.0;
    ForEachInChannel(shape, c, [&](int64_t i) {
      sum_dy += dy[i];
      sum_dy_xhat += static_cast<double>(dy[i]) * xhat[i];
    });
    gamma_.grad.data()[c] += static_cast<float>(sum_dy_xhat);
    beta_.grad.data()[c] += static_cast<float>(sum_dy);

    const float k = g * inv_std / static_cast<float>(m);
    const float mean_dy = static_cast<float>(sum_dy / m);
    const float mean_dy_xhat = static_cast<float>(sum_dy_xhat / m);
    ForEachInChannel(shape, c, [&](int64_t i) {
      dx[i] = k * (static_cast<float>(m) * dy[i] -
                   static_cast<float>(m) * mean_dy -
                   xhat[i] * static_cast<float>(m) * mean_dy_xhat);
    });
  }
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
