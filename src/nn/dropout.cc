#include "nn/dropout.h"

#include "utils/logging.h"

namespace edde {

Dropout::Dropout(float rate, uint64_t seed) : rate_(rate), rng_(seed) {
  EDDE_CHECK_GE(rate, 0.0f);
  EDDE_CHECK_LT(rate, 1.0f);
}

Tensor Dropout::Forward(const Tensor& input, bool training) {
  if (!training || rate_ == 0.0f) return input;
  const float keep = 1.0f - rate_;
  const float scale = 1.0f / keep;
  Tensor output(input.shape());
  cached_mask_ = Tensor(input.shape());
  const float* x = input.data();
  float* y = output.data();
  float* m = cached_mask_.data();
  const int64_t n = input.num_elements();
  for (int64_t i = 0; i < n; ++i) {
    const bool on = rng_.Bernoulli(keep);
    m[i] = on ? scale : 0.0f;
    y[i] = x[i] * m[i];
  }
  return output;
}

Tensor Dropout::Backward(const Tensor& grad_output) {
  if (rate_ == 0.0f) return grad_output;
  EDDE_CHECK(!cached_mask_.empty()) << "Backward before Forward";
  Tensor grad_input(grad_output.shape());
  const float* dy = grad_output.data();
  const float* m = cached_mask_.data();
  float* dx = grad_input.data();
  const int64_t n = grad_output.num_elements();
  for (int64_t i = 0; i < n; ++i) dx[i] = dy[i] * m[i];
  return grad_input;
}

void Dropout::CollectParameters(std::vector<Parameter*>* /*out*/) {}

std::string Dropout::name() const {
  return "dropout(" + std::to_string(rate_) + ")";
}

}  // namespace edde
