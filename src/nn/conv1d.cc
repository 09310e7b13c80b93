#include "nn/conv1d.h"

#include "nn/init.h"

namespace edde {

Conv1d::Conv1d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               int64_t stride, int64_t padding, bool use_bias, Rng* rng)
    : use_bias_(use_bias) {
  geom_.in_channels = in_channels;
  geom_.out_channels = out_channels;
  geom_.kernel = kernel;
  geom_.stride = stride;
  geom_.padding = padding;

  weight_.name = "weight";
  weight_.value = Tensor(Shape{out_channels, in_channels, kernel});
  HeNormalInit(&weight_.value, in_channels * kernel, rng);
  InitGrad(&weight_);
  if (use_bias_) {
    bias_.name = "bias";
    bias_.value = Tensor(Shape{out_channels}, 0.0f);
    InitGrad(&bias_);
  }
}

Tensor Conv1d::ForwardImpl(const Tensor& input, Tape* tape) {
  if (tape != nullptr) tape->Save(input);
  return Conv1dForward(input, weight_.value, bias_.value, geom_);
}

Tensor Conv1d::BackwardImpl(const Tensor& grad_output, Tape* tape) {
  return Conv1dBackward(tape->Take(), weight_.value, grad_output, geom_,
                        &weight_.grad, use_bias_ ? &bias_.grad : nullptr);
}

void Conv1d::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&weight_);
  if (use_bias_) out->push_back(&bias_);
}

std::string Conv1d::name() const {
  return "conv1d(" + std::to_string(geom_.in_channels) + "->" +
         std::to_string(geom_.out_channels) + ",k" +
         std::to_string(geom_.kernel) + ")";
}

}  // namespace edde
