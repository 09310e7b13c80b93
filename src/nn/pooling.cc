#include "nn/pooling.h"

#include "tensor/ops.h"
#include "utils/logging.h"

namespace edde {

Tensor GlobalAvgPool2d::Forward(const Tensor& input, bool /*training*/) {
  cached_input_shape_ = input.shape();
  return GlobalAvgPool2dForward(input);
}

Tensor GlobalAvgPool2d::Backward(const Tensor& grad_output) {
  EDDE_CHECK_GT(cached_input_shape_.rank(), 0) << "Backward before Forward";
  return GlobalAvgPool2dBackward(cached_input_shape_, grad_output);
}

void GlobalAvgPool2d::CollectParameters(std::vector<Parameter*>* /*out*/) {}

Tensor Flatten::Forward(const Tensor& input, bool /*training*/) {
  cached_input_shape_ = input.shape();
  const int64_t n = input.shape().dim(0);
  return input.Reshape(Shape{n, input.num_elements() / n});
}

Tensor Flatten::Backward(const Tensor& grad_output) {
  EDDE_CHECK_GT(cached_input_shape_.rank(), 0) << "Backward before Forward";
  return grad_output.Reshape(cached_input_shape_);
}

void Flatten::CollectParameters(std::vector<Parameter*>* /*out*/) {}

}  // namespace edde
