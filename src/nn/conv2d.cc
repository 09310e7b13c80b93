#include "nn/conv2d.h"

#include "nn/init.h"
#include "utils/logging.h"

namespace edde {

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t padding, bool use_bias, Rng* rng)
    : use_bias_(use_bias) {
  geom_.in_channels = in_channels;
  geom_.out_channels = out_channels;
  geom_.kernel = kernel;
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

Tensor Conv2d::Forward(const Tensor& input, bool training) {
  cached_input_ = input;
  if (precision_ == Precision::kInt8 && !training) {
    return Conv2dForwardInt8(input, qweight_, bias_.value, geom_);
  }
  return Conv2dForward(input, weight_.value, bias_.value, geom_);
}

void Conv2d::SetPrecision(Precision precision) {
  precision_ = precision;
  if (precision == Precision::kInt8) {
    qweight_ = QuantizeWeightsPerChannel(weight_.value);
  } else {
    qweight_ = QuantizedMatrix();
  }
}

Tensor Conv2d::Backward(const Tensor& grad_output) {
  EDDE_CHECK(!cached_input_.empty()) << "Backward before Forward";
  return Conv2dBackward(cached_input_, weight_.value, grad_output, geom_,
                        &weight_.grad, use_bias_ ? &bias_.grad : nullptr);
}

void Conv2d::BackwardParams(const Tensor& grad_output) {
  EDDE_CHECK(!cached_input_.empty()) << "Backward before Forward";
  Conv2dBackward(cached_input_, weight_.value, grad_output, geom_,
                 &weight_.grad, use_bias_ ? &bias_.grad : nullptr,
                 /*input_grad=*/false);
}

void Conv2d::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&weight_);
  if (use_bias_) out->push_back(&bias_);
}

std::string Conv2d::name() const {
  return "conv2d(" + std::to_string(geom_.in_channels) + "->" +
         std::to_string(geom_.out_channels) + ",k" +
         std::to_string(geom_.kernel) + ",s" + std::to_string(geom_.stride) +
         ")";
}

}  // namespace edde
