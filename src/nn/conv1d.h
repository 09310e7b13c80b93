#ifndef EDDE_NN_CONV1D_H_
#define EDDE_NN_CONV1D_H_

#include <string>
#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace edde {

/// 1-D convolution layer over (N, C, L) sequences; used by TextCNN where
/// channels are embedding dimensions and L is the token position.
class Conv1d : public Module {
 public:
  Conv1d(int64_t in_channels, int64_t out_channels, int64_t kernel,
         int64_t stride, int64_t padding, bool use_bias, Rng* rng);

  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override;

  const Conv1dGeom& geom() const { return geom_; }

 protected:
  Tensor ForwardImpl(const Tensor& input, Tape* tape) override;
  Tensor BackwardImpl(const Tensor& grad_output, Tape* tape) override;

 private:
  Conv1dGeom geom_;
  bool use_bias_;
  Parameter weight_;
  Parameter bias_;
};

}  // namespace edde

#endif  // EDDE_NN_CONV1D_H_
