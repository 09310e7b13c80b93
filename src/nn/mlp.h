#ifndef EDDE_NN_MLP_H_
#define EDDE_NN_MLP_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/module.h"
#include "nn/sequential.h"

namespace edde {

/// Multi-layer perceptron configuration. Used for fast unit tests and as a
/// cheap base learner in property-style sweeps.
struct MlpConfig {
  int in_features = 16;
  std::vector<int> hidden = {32};
  int num_classes = 10;
};

/// Dense -> ReLU stacks with a linear classification head.
class Mlp : public Module {
 public:
  Mlp(const MlpConfig& config, uint64_t seed);

  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override;
  void PackForEval() override;

  const MlpConfig& config() const { return config_; }

 protected:
  Tensor ForwardImpl(const Tensor& input, Tape* tape) override;
  Tensor BackwardImpl(const Tensor& grad_output, Tape* tape) override;

 private:
  MlpConfig config_;
  Sequential body_;
};

}  // namespace edde

#endif  // EDDE_NN_MLP_H_
