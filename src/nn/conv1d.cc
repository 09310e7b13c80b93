#include "nn/conv1d.h"

#include "nn/init.h"

namespace edde {

namespace {

// (A, B, L) viewed as (A, B, 1, L): a sequence as a height-1 plane, a
// length-k kernel as a 1 × k one.
Tensor AsRow(const Tensor& t) {
  const Shape& s = t.shape();
  return t.Reshape(Shape{s.dim(0), s.dim(1), 1, s.dim(2)});
}

// The inverse of AsRow.
Tensor FromRow(const Tensor& t) {
  const Shape& s = t.shape();
  return t.Reshape(Shape{s.dim(0), s.dim(1), s.dim(3)});
}

}  // namespace

Conv1d::Conv1d(int64_t in_channels, int64_t out_channels, int64_t kernel,
               bool use_bias, Rng* rng)
    : use_bias_(use_bias) {
  geom_.in_channels = in_channels;
  geom_.out_channels = out_channels;
  geom_.kernel_h = 1;
  geom_.kernel_w = kernel;
  geom_.padding = 0;

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
  const Tensor x = AsRow(input);
  Tensor x_t;
  if (tape != nullptr) {
    x_t = tape->NewTensor(Conv2dInputCopyShape(x.shape()));
    tape->Save(input);
    tape->Save(x_t);
  }
  return FromRow(Conv2dForward(x, AsRow(weight_.value), bias_.value, geom_,
                               NewTensor(tape, geom_.OutputShape(x.shape())),
                               x_t));
}

Tensor Conv1d::BackwardImpl(const Tensor& grad_output, Tape* tape) {
  const Tensor x_t = tape->Take();
  const Tensor input = tape->Take();
  Tensor grad_input = AsRow(tape->NewTensor(input.shape()));
  Tensor weight_grad = AsRow(weight_.grad);
  Conv2dBackward(AsRow(input), AsRow(weight_.value), AsRow(grad_output),
                 geom_, &weight_grad, use_bias_ ? &bias_.grad : nullptr,
                 &grad_input, x_t);
  return FromRow(grad_input);
}

void Conv1d::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&weight_);
  if (use_bias_) out->push_back(&bias_);
}

std::string Conv1d::name() const {
  return "conv1d(" + std::to_string(geom_.in_channels) + "->" +
         std::to_string(geom_.out_channels) + ",k" +
         std::to_string(geom_.kernel_w) + ")";
}

}  // namespace edde
