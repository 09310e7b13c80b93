#ifndef EDDE_NN_POOLING_H_
#define EDDE_NN_POOLING_H_

#include <string>
#include <vector>

#include "nn/module.h"

namespace edde {

/// Global average pooling: (N, C, H, W) -> (N, C).
class GlobalAvgPool2d : public Module {
 public:
  GlobalAvgPool2d() = default;

  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override { return "global_avg_pool"; }

 protected:
  Tensor ForwardImpl(const Tensor& input, Tape* tape) override;
  Tensor BackwardImpl(const Tensor& grad_output, Tape* tape) override;
};

/// Flatten: (N, ...) -> (N, prod(...)).
class Flatten : public Module {
 public:
  Flatten() = default;

  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override { return "flatten"; }

 protected:
  Tensor ForwardImpl(const Tensor& input, Tape* tape) override;
  Tensor BackwardImpl(const Tensor& grad_output, Tape* tape) override;
};

}  // namespace edde

#endif  // EDDE_NN_POOLING_H_
