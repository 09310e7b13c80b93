#include "nn/conv2d.h"

#include "nn/init.h"

namespace edde {

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t padding, bool use_bias, Rng* rng)
    : use_bias_(use_bias) {
  geom_.in_channels = in_channels;
  geom_.out_channels = out_channels;
  geom_.kernel_h = kernel;
  geom_.kernel_w = kernel;
  geom_.stride = stride;
  geom_.padding = padding;

  weight_.name = "weight";
  weight_.value = Tensor(Shape{out_channels, in_channels, kernel, kernel});
  HeNormalInit(&weight_.value, in_channels * kernel * kernel, rng);
  InitGrad(&weight_);
  if (use_bias_) {
    bias_.name = "bias";
    bias_.value = Tensor(Shape{out_channels}, 0.0f);
    InitGrad(&bias_);
  }
}

Tensor Conv2d::ForwardImpl(const Tensor& input, Tape* tape) {
  if (tape == nullptr) {
    if (precision_ == Precision::kInt8) {
      return Conv2dForwardInt8(input, qweight_, bias_.value, geom_);
    }
    return Conv2dForward(input, weight_.value, bias_.value, geom_);
  }
  // The input handle keeps its shape and data mark for Backward; the
  // batch-innermost copy is what the kernels read.
  const Tensor input_t = tape->NewTensor(Conv2dInputCopyShape(input.shape()));
  tape->Save(input);
  tape->Save(input_t);
  return Conv2dForward(input, weight_.value, bias_.value, geom_,
                       tape->NewTensor(geom_.OutputShape(input.shape())),
                       input_t);
}

void Conv2d::SetPrecision(Precision precision) {
  precision_ = precision;
  if (precision == Precision::kInt8) {
    qweight_ = QuantizeWeightsPerChannel(weight_.value);
  } else {
    qweight_ = QuantizedMatrix();
  }
}

Tensor Conv2d::BackwardImpl(const Tensor& grad_output, Tape* tape) {
  const Tensor input_t = tape->Take();
  const Tensor input = tape->Take();
  Tensor grad_input;
  if (!tape->IsData(input)) grad_input = tape->NewTensor(input.shape());
  Conv2dBackward(input, weight_.value, grad_output, geom_, &weight_.grad,
                 use_bias_ ? &bias_.grad : nullptr,
                 grad_input.empty() ? nullptr : &grad_input, input_t);
  return grad_input;
}

void Conv2d::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&weight_);
  if (use_bias_) out->push_back(&bias_);
}

std::string Conv2d::name() const {
  return "conv2d(" + std::to_string(geom_.in_channels) + "->" +
         std::to_string(geom_.out_channels) + ",k" +
         std::to_string(geom_.kernel_w) + ",s" + std::to_string(geom_.stride) +
         ")";
}

}  // namespace edde
