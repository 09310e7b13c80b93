#ifndef EDDE_OPTIM_SGD_H_
#define EDDE_OPTIM_SGD_H_

#include <vector>

#include "nn/module.h"
#include "utils/durable_io.h"

namespace edde {

/// Configuration of stochastic gradient descent.
struct SgdConfig {
  float learning_rate = 0.1f;
  float momentum = 0.9f;
  float weight_decay = 1e-4f;  ///< L2 penalty applied to trainable params.
  bool nesterov = false;
};

/// SGD with classical (or Nesterov) momentum and decoupled-from-loss L2
/// weight decay: v = m*v + (g + wd*w); w -= lr * v.
///
/// The optimizer keeps one velocity slot per parameter; pointers to the
/// module's parameters are captured at construction, so the module must
/// outlive the optimizer and its parameter structure must not change.
class Sgd {
 public:
  Sgd(Module* module, const SgdConfig& config);

  /// Applies one update using the gradients currently accumulated in the
  /// parameters, then the caller typically calls module->ZeroGrad().
  void Step();

  /// Updates the learning rate (driven by an LrSchedule between epochs).
  void set_learning_rate(float lr) { config_.learning_rate = lr; }
  float learning_rate() const { return config_.learning_rate; }

  const SgdConfig& config() const { return config_; }

  /// Serializes the momentum buffers into `out` (checkpointing). The
  /// learning rate is not saved: it is re-derived from the LR schedule at
  /// the resumed epoch.
  void SaveState(SectionWriter* out) const;

  /// Restores momentum buffers written by SaveState. Fails with Corruption
  /// when the slot count or any slot size does not match this optimizer's
  /// parameters (wrong module architecture), and then restores no slot.
  Status LoadState(SectionReader* in);

 private:
  SgdConfig config_;
  std::vector<Parameter*> params_;
  std::vector<Tensor> velocity_;
};

}  // namespace edde

#endif  // EDDE_OPTIM_SGD_H_
