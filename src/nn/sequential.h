#ifndef EDDE_NN_SEQUENTIAL_H_
#define EDDE_NN_SEQUENTIAL_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/module.h"

namespace edde {

/// Linear chain of modules; Forward applies them input-to-output, Backward
/// reverses the chain.
class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a layer; returns a raw observer pointer for convenience.
  Module* Add(std::unique_ptr<Module> layer);

  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override;
  void PackForEval() override;

  size_t size() const { return layers_.size(); }
  Module* layer(size_t i) { return layers_[i].get(); }

 protected:
  Tensor ForwardImpl(const Tensor& input, Tape* tape) override;
  Tensor BackwardImpl(const Tensor& grad_output, Tape* tape) override;

 private:
  std::vector<std::unique_ptr<Module>> layers_;
};

}  // namespace edde

#endif  // EDDE_NN_SEQUENTIAL_H_
