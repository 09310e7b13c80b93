#ifndef EDDE_NN_MODULE_H_
#define EDDE_NN_MODULE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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

/// Numeric precision of a module's inference path. Training always runs in
/// float32; kInt8 only changes eval-mode Forward (weights are quantized
/// per output channel, activations dynamically per row — DESIGN.md §13).
enum class Precision : uint8_t {
  kFloat32 = 0,
  kInt8 = 1,
};

/// Stable lowercase name ("fp32", "int8") for manifests and logs.
const char* PrecisionName(Precision precision);

/// Base class for all neural-network layers and models.
///
/// Modules implement explicit reverse-mode differentiation: Forward caches
/// whatever it needs, Backward consumes the output gradient and returns the
/// input gradient while accumulating parameter gradients into
/// Parameter::grad. One Forward must precede each Backward.
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

  /// Computes the layer output. `training` toggles train-time behaviour
  /// (batch-norm batch statistics, dropout).
  virtual Tensor Forward(const Tensor& input, bool training) = 0;

  /// Backpropagates `grad_output`, accumulating parameter gradients, and
  /// returns the gradient with respect to the last Forward input — empty
  /// when the input is data (token ids, a network's input images), which
  /// nothing differentiates.
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  /// Appends this module's parameters, input-side first.
  virtual void CollectParameters(std::vector<Parameter*>* out) = 0;

  /// Human-readable layer name, e.g. "conv2d(16->32,k3)".
  virtual std::string name() const = 0;

  /// Switches the inference precision. The default implementation records
  /// the tag; layers with weights override to (re)quantize, containers
  /// override to forward the call to their children. Switching back to
  /// kFloat32 restores bit-exact fp32 behaviour — the float weights are
  /// never modified. Call again after mutating weights while at kInt8.
  virtual void SetPrecision(Precision precision) { precision_ = precision; }

  Precision precision() const { return precision_; }

  /// Flattened, depth-ordered parameter list.
  std::vector<Parameter*> Parameters();

  /// Zeroes every parameter gradient.
  void ZeroGrad();

  /// Total number of scalar parameters (trainable only by default).
  int64_t NumParameters(bool trainable_only = true);

 protected:
  Precision precision_ = Precision::kFloat32;
};

/// Allocates `param`'s gradient with the value's shape and zeroes it.
void InitGrad(Parameter* param);

}  // namespace edde

#endif  // EDDE_NN_MODULE_H_
