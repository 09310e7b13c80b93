#include "nn/dropout.h"

#include "utils/logging.h"

namespace edde {

Dropout::Dropout(float rate, uint64_t seed) : rate_(rate), rng_(seed) {
  EDDE_CHECK_GE(rate, 0.0f);
  EDDE_CHECK_LT(rate, 1.0f);
}

Tensor Dropout::ForwardImpl(const Tensor& input, Tape* tape) {
  if (tape == nullptr || rate_ == 0.0f) return input;
  const float keep = 1.0f - rate_;
  const float scale = 1.0f / keep;
  Tensor output = tape->NewTensor(input.shape());
  Tensor mask = tape->NewTensor(input.shape());
  tape->Save(mask);
  const float* x = input.data();
  float* y = output.data();
  float* m = mask.data();
  const int64_t n = input.num_elements();
  for (int64_t i = 0; i < n; ++i) {
    const bool on = rng_.Bernoulli(keep);
    m[i] = on ? scale : 0.0f;
    y[i] = x[i] * m[i];
  }
  return output;
}

Tensor Dropout::BackwardImpl(const Tensor& grad_output, Tape* tape) {
  if (rate_ == 0.0f) return grad_output;
  const Tensor mask = tape->Take();
  Tensor grad_input = tape->NewTensor(grad_output.shape());
  const float* dy = grad_output.data();
  const float* m = mask.data();
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
