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

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override { return "global_avg_pool"; }

 private:
  Shape cached_input_shape_;
};

/// Flatten: (N, ...) -> (N, prod(...)).
class Flatten : public Module {
 public:
  Flatten() = default;

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override { return "flatten"; }

 private:
  Shape cached_input_shape_;
};

}  // namespace edde

#endif  // EDDE_NN_POOLING_H_
