#ifndef EDDE_NN_RESNET_H_
#define EDDE_NN_RESNET_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/module.h"
#include "nn/pooling.h"

namespace edde {

/// CIFAR-style residual network configuration.
///
/// depth = 6n + 2 (He et al.): a 3x3 stem followed by three stages of n
/// basic blocks with channel widths {w, 2w, 4w} and spatial downsampling at
/// stage boundaries, then global average pooling and a classifier.
/// The paper's ResNet-32 is {depth=32, base_width=16}; the benchmark
/// harnesses use narrower/shallower members of the same family so a single
/// CPU core can train ensembles in seconds.
struct ResNetConfig {
  int depth = 8;          ///< 6n+2; 8 -> n=1, 32 -> n=5.
  int base_width = 8;     ///< channels of the first stage (paper: 16).
  int num_classes = 10;
  int in_channels = 3;

  /// Number of blocks per stage; aborts if depth is not 6n+2.
  int BlocksPerStage() const;
};

/// One pre-activation-free basic residual block:
/// y = ReLU(BN2(Conv2(ReLU(BN1(Conv1(x))))) + shortcut(x)).
/// The shortcut is identity, or 1x1 stride-2 conv + BN when downsampling.
/// BN1 runs fused with its ReLU, and BN2 with the shortcut addition and
/// the output ReLU (BatchNorm::ForwardRelu).
class ResidualBlock : public Module {
 public:
  ResidualBlock(int64_t in_channels, int64_t out_channels, int64_t stride,
                Rng* rng);

  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override;

 protected:
  Tensor ForwardImpl(const Tensor& input, Tape* tape) override;
  Tensor BackwardImpl(const Tensor& grad_output, Tape* tape) override;

 private:
  bool has_projection_;
  Conv2d conv1_;
  BatchNorm bn1_;
  Conv2d conv2_;
  BatchNorm bn2_;
  std::unique_ptr<Conv2d> proj_conv_;
  std::unique_ptr<BatchNorm> proj_bn_;
};

/// The full ResNet classifier. Its input images are data (Tape::MarkData):
/// Backward returns an empty tensor, and the stem computes its parameter
/// gradients only.
class ResNet : public Module {
 public:
  ResNet(const ResNetConfig& config, uint64_t seed);

  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override;
  void PackForEval() override;

  const ResNetConfig& config() const { return config_; }

 protected:
  Tensor ForwardImpl(const Tensor& input, Tape* tape) override;
  Tensor BackwardImpl(const Tensor& grad_output, Tape* tape) override;

 private:
  ResNetConfig config_;
  std::unique_ptr<Conv2d> stem_;
  std::unique_ptr<BatchNorm> stem_bn_;  ///< fused with the stem's ReLU
  std::vector<std::unique_ptr<ResidualBlock>> blocks_;
  GlobalAvgPool2d pool_;
  std::unique_ptr<Dense> classifier_;
};

}  // namespace edde

#endif  // EDDE_NN_RESNET_H_
