#ifndef EDDE_NN_CONV2D_H_
#define EDDE_NN_CONV2D_H_

#include <string>
#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace edde {

/// 2-D convolution layer over NCHW tensors (square kernel).
/// He-normal weight init; bias optional (ResNet-style convs followed by
/// batch-norm typically disable it).
///
/// A training Forward saves its input and the batch-innermost copy of it
/// that the kernels built (Conv2dInputCopyShape), so Backward does not
/// rebuild it. Backward computes no input gradient when the input is the
/// tape's data (a network's stem).
class Conv2d : public Module {
 public:
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
         int64_t stride, int64_t padding, bool use_bias, Rng* rng);

  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override;

  /// kInt8 quantizes the kernel per output channel ((OC, C·k²) view) for
  /// eval-mode Forward; training and Backward stay float32.
  void SetPrecision(Precision precision) override;

  const ConvGeom& geom() const { return geom_; }

 protected:
  Tensor ForwardImpl(const Tensor& input, Tape* tape) override;
  Tensor BackwardImpl(const Tensor& grad_output, Tape* tape) override;

 private:
  ConvGeom geom_;
  bool use_bias_;
  Parameter weight_;
  Parameter bias_;
  QuantizedMatrix qweight_;  ///< populated iff precision_ == kInt8
};

}  // namespace edde

#endif  // EDDE_NN_CONV2D_H_
