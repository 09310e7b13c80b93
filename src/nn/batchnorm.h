#ifndef EDDE_NN_BATCHNORM_H_
#define EDDE_NN_BATCHNORM_H_

#include <string>
#include <vector>

#include "nn/module.h"

namespace edde {

/// Batch normalization.
///
/// Works on (N, C, H, W) tensors (normalizing each channel over N*H*W) and
/// on (N, C) tensors (normalizing each feature over N). Running statistics
/// are stored as non-trainable parameters so they are serialized and
/// knowledge-transferred along with gamma/beta.
class BatchNorm : public Module {
 public:
  explicit BatchNorm(int64_t channels, float momentum = 0.9f,
                     float epsilon = 1e-5f);

  Tensor Forward(const Tensor& input, bool training) override;
  Tensor Backward(const Tensor& grad_output) override;
  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override;

  int64_t channels() const { return channels_; }

 private:
  int64_t channels_;
  float momentum_;
  float epsilon_;
  Parameter gamma_;
  Parameter beta_;
  Parameter running_mean_;  // trainable = false
  Parameter running_var_;   // trainable = false

  // Training-mode Forward cache for Backward.
  Tensor cached_xhat_;
  std::vector<float> batch_inv_std_;
};

}  // namespace edde

#endif  // EDDE_NN_BATCHNORM_H_
