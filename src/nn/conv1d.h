#ifndef EDDE_NN_CONV1D_H_
#define EDDE_NN_CONV1D_H_

#include <string>
#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace edde {

/// 1-D convolution layer over (N, C, L) sequences, stride 1 and no
/// padding; used by TextCNN, where channels are embedding dimensions and L
/// is the token position.
///
/// A sequence is a height-1 plane and the (OC, C, k) kernel a 1 × k one,
/// so Forward and Backward are Conv2d's kernel calls on reshaped views
/// (Conv2dForward/Conv2dBackward): the same direct kernels, tiers, pool
/// split and tape use as Conv2d, with no second conv implementation. The
/// weight keeps its (OC, C, k) shape, so checkpoints and artifacts are
/// unchanged. The layer has no int8 path: it runs float32 at every
/// precision.
class Conv1d : public Module {
 public:
  Conv1d(int64_t in_channels, int64_t out_channels, int64_t kernel,
         bool use_bias, Rng* rng);

  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override;

  const ConvGeom& geom() const { return geom_; }

 protected:
  Tensor ForwardImpl(const Tensor& input, Tape* tape) override;
  Tensor BackwardImpl(const Tensor& grad_output, Tape* tape) override;

 private:
  ConvGeom geom_;  ///< 1 × kernel, stride 1, padding 0
  bool use_bias_;
  Parameter weight_;
  Parameter bias_;
};

}  // namespace edde

#endif  // EDDE_NN_CONV1D_H_
