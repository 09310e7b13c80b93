#ifndef EDDE_NN_DENSE_H_
#define EDDE_NN_DENSE_H_

#include <string>
#include <vector>

#include "nn/module.h"
#include "tensor/quantize.h"
#include "tensor/rng.h"

namespace edde {

/// Fully connected layer: y = x @ W^T + b, x (N, in), W (out, in), b (out).
class Dense : public Module {
 public:
  /// Constructs with He-normal weights and zero bias.
  Dense(int64_t in_features, int64_t out_features, Rng* rng);

  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override;

  /// kInt8 quantizes the weight per output channel for eval-mode Forward;
  /// training-mode Forward and Backward always use the float weights.
  void SetPrecision(Precision precision) override;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 protected:
  Tensor ForwardImpl(const Tensor& input, Tape* tape) override;
  Tensor BackwardImpl(const Tensor& grad_output, Tape* tape) override;

 private:
  int64_t in_features_;
  int64_t out_features_;
  Parameter weight_;
  Parameter bias_;
  QuantizedMatrix qweight_;  ///< populated iff precision_ == kInt8
};

}  // namespace edde

#endif  // EDDE_NN_DENSE_H_
