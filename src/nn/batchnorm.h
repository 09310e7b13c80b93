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
///
/// ForwardRelu/BackwardRelu fuse the ReLU that follows a BatchNorm in the
/// ResNet and DenseNet members, and ResidualBlock's shortcut addition
/// before it, into one pass per direction. They are bit for bit the
/// separate BatchNorm, Add and ReLU passes: the same per-channel summation
/// order, the same masked gradient and the same addition.
class BatchNorm : public Module {
 public:
  explicit BatchNorm(int64_t channels, float momentum = 0.9f,
                     float epsilon = 1e-5f);

  /// y = ReLU(BN(x) + shortcut), or ReLU(BN(x)) for an empty `shortcut`.
  Tensor ForwardRelu(const Tensor& input, const Tensor& shortcut, Tape* tape);

  /// Backward of ForwardRelu; returns dx. A non-null `grad_shortcut`
  /// receives the gradient that reaches the shortcut: dy through the ReLU
  /// mask.
  Tensor BackwardRelu(const Tensor& grad_output, Tape* tape,
                      Tensor* grad_shortcut = nullptr);

  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override;

  int64_t channels() const { return channels_; }

 protected:
  Tensor ForwardImpl(const Tensor& input, Tape* tape) override;
  Tensor BackwardImpl(const Tensor& grad_output, Tape* tape) override;

 private:
  Tensor Normalize(const Tensor& input, const Tensor* shortcut, bool relu,
                   Tape* tape);
  Tensor NormalizeBackward(const Tensor& grad_output, bool relu, Tape* tape,
                           Tensor* grad_shortcut);

  int64_t channels_;
  float momentum_;
  float epsilon_;
  Parameter gamma_;
  Parameter beta_;
  Parameter running_mean_;  // trainable = false
  Parameter running_var_;   // trainable = false
};

}  // namespace edde

#endif  // EDDE_NN_BATCHNORM_H_
