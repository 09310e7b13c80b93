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
class Conv2d : public Module {
 public:
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel,
         int64_t stride, int64_t padding, bool use_bias, Rng* rng);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  /// Backward for a layer whose input is data (a network's stem): the same
  /// parameter gradients as Backward, and no input gradient.
  void BackwardParams(const Tensor& grad_output);
  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override;

  /// kInt8 quantizes the kernel per output channel ((OC, C·k²) view) for
  /// eval-mode Forward; training and Backward stay float32.
  void SetPrecision(Precision precision) override;

  const ConvGeom& geom() const { return geom_; }

 private:
  ConvGeom geom_;
  bool use_bias_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;
  QuantizedMatrix qweight_;  ///< populated iff precision_ == kInt8
};

}  // namespace edde

#endif  // EDDE_NN_CONV2D_H_
