#include "nn/pooling.h"

#include "tensor/ops.h"

namespace edde {

Tensor GlobalAvgPool2d::ForwardImpl(const Tensor& input, Tape* tape) {
  if (tape == nullptr) return GlobalAvgPool2dForward(input);
  tape->Save(input);
  const Shape& shape = input.shape();
  return GlobalAvgPool2dForward(
      input, tape->NewTensor(Shape{shape.dim(0), shape.dim(1)}));
}

Tensor GlobalAvgPool2d::BackwardImpl(const Tensor& grad_output, Tape* tape) {
  const Tensor input = tape->Take();
  return GlobalAvgPool2dBackward(input.shape(), grad_output,
                                 tape->NewTensor(input.shape()));
}

void GlobalAvgPool2d::CollectParameters(std::vector<Parameter*>* /*out*/) {}

Tensor Flatten::ForwardImpl(const Tensor& input, Tape* tape) {
  if (tape != nullptr) tape->Save(input);
  const int64_t n = input.shape().dim(0);
  return input.Reshape(Shape{n, input.num_elements() / n});
}

Tensor Flatten::BackwardImpl(const Tensor& grad_output, Tape* tape) {
  return grad_output.Reshape(tape->Take().shape());
}

void Flatten::CollectParameters(std::vector<Parameter*>* /*out*/) {}

}  // namespace edde
