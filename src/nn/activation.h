#ifndef EDDE_NN_ACTIVATION_H_
#define EDDE_NN_ACTIVATION_H_

#include <string>
#include <vector>

#include "nn/module.h"

namespace edde {

/// Rectified linear unit, elementwise max(0, x). Parameter-free.
class ReLU : public Module {
 public:
  ReLU() = default;

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override { return "relu"; }

 private:
  Tensor cached_output_;  // y > 0 iff the input passed through
};

}  // namespace edde

#endif  // EDDE_NN_ACTIVATION_H_
