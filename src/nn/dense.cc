#include "nn/dense.h"

#include "nn/init.h"
#include "tensor/gemm_int8.h"
#include "tensor/ops.h"
#include "utils/logging.h"

namespace edde {

Dense::Dense(int64_t in_features, int64_t out_features, Rng* rng)
    : in_features_(in_features), out_features_(out_features) {
  weight_.name = "weight";
  weight_.value = Tensor(Shape{out_features, in_features});
  HeNormalInit(&weight_.value, in_features, rng);
  InitGrad(&weight_);
  bias_.name = "bias";
  bias_.value = Tensor(Shape{out_features}, 0.0f);
  InitGrad(&bias_);
}

Tensor Dense::ForwardImpl(const Tensor& input, Tape* tape) {
  EDDE_CHECK_EQ(input.shape().rank(), 2);
  EDDE_CHECK_EQ(input.shape().dim(1), in_features_);
  if (tape != nullptr) tape->Save(input);
  const int64_t n = input.shape().dim(0);
  Tensor output = NewTensor(tape, Shape{n, out_features_});
  // y = x @ W^T + b, with the bias broadcast fused into the gemm epilogue
  // (output columns are features, so the broadcast is per column).
  GemmEpilogue epi;
  epi.bias = GemmEpilogue::Bias::kPerCol;
  epi.bias_data = bias_.value.data();
  if (precision_ == Precision::kInt8 && tape == nullptr) {
    // x @ W^T is exactly the int8 gemm's native orientation: activation
    // rows against quantized weight rows (output channels).
    GemmInt8(/*trans_a=*/false, /*trans_c=*/false, n, in_features_,
             input.data(), in_features_, qweight_, output.data(),
             out_features_, epi);
    return output;
  }
  Gemm(false, true, 1.0f, input, weight_.value, 0.0f, &output, epi);
  return output;
}

Tensor Dense::BackwardImpl(const Tensor& grad_output, Tape* tape) {
  const Tensor input = tape->Take();
  const int64_t n = grad_output.shape().dim(0);
  // dW += dY^T @ X ; db += colsum(dY) ; dX = dY @ W
  Gemm(true, false, 1.0f, grad_output, input, 1.0f, &weight_.grad);
  for (int64_t i = 0; i < n; ++i) {
    const float* row = grad_output.data() + i * out_features_;
    for (int64_t j = 0; j < out_features_; ++j) bias_.grad.data()[j] += row[j];
  }
  Tensor grad_input = tape->NewTensor(Shape{n, in_features_});
  Gemm(false, false, 1.0f, grad_output, weight_.value, 0.0f, &grad_input);
  return grad_input;
}

void Dense::SetPrecision(Precision precision) {
  precision_ = precision;
  if (precision == Precision::kInt8) {
    qweight_ = QuantizeWeightsPerChannel(weight_.value);
  } else {
    qweight_ = QuantizedMatrix();
  }
}

void Dense::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&weight_);
  out->push_back(&bias_);
}

std::string Dense::name() const {
  return "dense(" + std::to_string(in_features_) + "->" +
         std::to_string(out_features_) + ")";
}

}  // namespace edde
