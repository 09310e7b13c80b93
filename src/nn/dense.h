#ifndef EDDE_NN_DENSE_H_
#define EDDE_NN_DENSE_H_

#include <string>
#include <vector>

#include "nn/module.h"
#include "tensor/gemm.h"
#include "tensor/rng.h"

namespace edde {

/// Fully connected layer: y = x @ W^T + b, x (N, in), W (out, in), b (out).
class Dense : public Module {
 public:
  /// Constructs with He-normal weights and zero bias.
  Dense(int64_t in_features, int64_t out_features, Rng* rng);

  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override;

  /// Packs Wᵀ once into the GEMM's panels, which eval Forward then reads
  /// instead of packing W on every call.
  void PackForEval() override;

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
  PackedB packed_weight_;  ///< Wᵀ, built by PackForEval
};

}  // namespace edde

#endif  // EDDE_NN_DENSE_H_
