#ifndef EDDE_NN_ACTIVATION_H_
#define EDDE_NN_ACTIVATION_H_

#include <string>
#include <vector>

#include "nn/module.h"

namespace edde {

/// Rectified linear unit, elementwise max(0, x). Parameter-free. Behind a
/// BatchNorm the two run fused (BatchNorm::ForwardRelu).
class ReLU : public Module {
 public:
  ReLU() = default;

  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override { return "relu"; }

 protected:
  Tensor ForwardImpl(const Tensor& input, Tape* tape) override;
  Tensor BackwardImpl(const Tensor& grad_output, Tape* tape) override;
};

}  // namespace edde

#endif  // EDDE_NN_ACTIVATION_H_
