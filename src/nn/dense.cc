#include "nn/dense.h"

#include "nn/init.h"
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
  if (tape != nullptr) {
    EDDE_CHECK(packed_weight_.empty()) << "training a layer packed for eval";
    tape->Save(input);
  }
  const int64_t n = input.shape().dim(0);
  Tensor output = NewTensor(tape, Shape{n, out_features_});
  // y = x @ W^T + b, with the bias broadcast fused into the gemm epilogue
  // (output columns are features, so the broadcast is per column).
  GemmEpilogue epi;
  epi.bias = GemmEpilogue::Bias::kPerCol;
  epi.bias_data = bias_.value.data();
  if (!packed_weight_.empty()) {
    GemmRaw(/*trans_a=*/false, n, 1.0f, input.data(), in_features_,
            packed_weight_, 0.0f, output.data(), out_features_, epi);
    return output;
  }
  Gemm(false, true, 1.0f, input, weight_.value, 0.0f, &output, epi);
  return output;
}

Tensor Dense::BackwardImpl(const Tensor& grad_output, Tape* tape) {
  EDDE_CHECK(packed_weight_.empty()) << "training a layer packed for eval";
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

void Dense::PackForEval() {
  packed_weight_ = PackedB(/*trans_b=*/true, in_features_, out_features_,
                           weight_.value.data(), in_features_);
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
