#include "nn/activation.h"

#include "utils/logging.h"

namespace edde {

Tensor ReLU::Forward(const Tensor& input, bool training) {
  Tensor output(input.shape());
  const float* x = input.data();
  float* y = output.data();
  const int64_t n = input.num_elements();
#pragma omp simd
  for (int64_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
  // The output itself encodes the mask (y > 0 iff x > 0 passed through),
  // so backward needs no separate mask tensor.
  if (training) cached_output_ = output;
  return output;
}

Tensor ReLU::Backward(const Tensor& grad_output) {
  EDDE_CHECK(!cached_output_.empty()) << "Backward before Forward";
  EDDE_CHECK(grad_output.shape() == cached_output_.shape());
  Tensor grad_input(grad_output.shape());
  const float* dy = grad_output.data();
  const float* y = cached_output_.data();
  float* dx = grad_input.data();
  const int64_t n = grad_output.num_elements();
  // Load dy unconditionally: a load under the condition compiles to a
  // branch per element, which mispredicts on random signs.
#pragma omp simd
  for (int64_t i = 0; i < n; ++i) {
    const float g = dy[i];
    dx[i] = y[i] > 0.0f ? g : 0.0f;
  }
  return grad_input;
}

void ReLU::CollectParameters(std::vector<Parameter*>* /*out*/) {}

}  // namespace edde
