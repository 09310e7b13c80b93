#ifndef EDDE_NN_MODULE_H_
#define EDDE_NN_MODULE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/tape.h"
#include "tensor/tensor.h"

namespace edde {

/// A learnable tensor plus its gradient accumulator.
///
/// `trainable == false` marks statistics buffers (e.g. batch-norm running
/// mean/variance) that must be saved, loaded and *transferred* with the layer
/// but never touched by the optimizer.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
  bool trainable = true;
};

/// Base class for all neural-network layers and models.
///
/// Modules implement explicit reverse-mode differentiation. A training
/// step runs on a Tape the caller owns (TrainModel resets one per batch):
/// `Forward(x, tape)` saves on it whatever Backward needs, and
/// `Backward(dy, tape)` takes those tensors back, accumulates parameter
/// gradients into Parameter::grad and returns the input gradient. A module
/// keeps no training cache of its own; its members are its weights.
///
/// `Forward(x, nullptr)` is eval mode: it reads the weights and returns a
/// fresh output, so any number of threads may run it on the same module at
/// once (the server evaluates one member for several batches concurrently,
/// DESIGN.md §15), and it leaves every tape alone.
///
/// `Forward(x, training)` and `Backward(dy)` are wrappers over a tape the
/// module keeps for them: a training-mode Forward resets it and records one
/// step, which the next Backward consumes. They serve single-layer probes
/// and tests; they are not re-entrant in training mode.
///
/// CollectParameters must append parameters in *depth order* (closest to the
/// input first). EDDE's knowledge-transfer strategy (transfer the lower β
/// fraction of the network, Sec. IV-B of the paper) depends on this ordering.
class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Computes the layer output; a non-null `tape` selects training mode
  /// (batch-norm batch statistics, dropout) and records the step on it.
  Tensor Forward(const Tensor& input, Tape* tape) {
    return ForwardImpl(input, tape);
  }

  /// Backpropagates `grad_output` through the step `tape` recorded,
  /// accumulating parameter gradients, and returns the gradient with respect
  /// to the Forward input — empty when the input is data (token ids, a
  /// network's input images), which nothing differentiates.
  Tensor Backward(const Tensor& grad_output, Tape* tape) {
    return BackwardImpl(grad_output, tape);
  }

  /// Forward on the module's own tape (`training`) or in eval mode.
  Tensor Forward(const Tensor& input, bool training);

  /// Backward of the most recent training-mode `Forward(x, true)`.
  Tensor Backward(const Tensor& grad_output);

  /// Appends this module's parameters, input-side first.
  virtual void CollectParameters(std::vector<Parameter*>* out) = 0;

  /// Human-readable layer name, e.g. "conv2d(16->32,k3)".
  virtual std::string name() const = 0;

  /// Freezes the module for serving: a layer whose eval Forward reads its
  /// weights in another layout (Dense: GEMM panels) builds that copy once,
  /// and containers forward the call to their children. Eval outputs keep
  /// their bits. Afterwards the weights must not change, since eval reads
  /// the copy; a training-mode Forward or a Backward on a packed layer is a
  /// checked error. EnsembleModel::AddMember calls it on every member.
  virtual void PackForEval() {}

  /// Flattened, depth-ordered parameter list.
  std::vector<Parameter*> Parameters();

  /// Zeroes every parameter gradient.
  void ZeroGrad();

  /// Total number of scalar parameters (trainable only by default).
  int64_t NumParameters(bool trainable_only = true);

 protected:
  virtual Tensor ForwardImpl(const Tensor& input, Tape* tape) = 0;
  virtual Tensor BackwardImpl(const Tensor& grad_output, Tape* tape) = 0;

 private:
  std::unique_ptr<Tape> tape_;  ///< the bool wrappers' tape
};

/// Allocates `param`'s gradient with the value's shape and zeroes it.
void InitGrad(Parameter* param);

}  // namespace edde

#endif  // EDDE_NN_MODULE_H_
