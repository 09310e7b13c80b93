#ifndef EDDE_NN_DENSENET_H_
#define EDDE_NN_DENSENET_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/module.h"
#include "nn/pooling.h"

namespace edde {

/// CIFAR-style DenseNet configuration (Huang et al., basic non-bottleneck
/// variant). depth = 3m + 4: a stem conv, three dense blocks of m layers
/// with two transition layers in between, then BN-ReLU-pool-classifier.
/// The paper's DenseNet-40 with growth rate 12 is {depth=40, growth=12}.
struct DenseNetConfig {
  int depth = 13;       ///< 3m+4; 13 -> m=3, 40 -> m=12.
  int growth = 4;       ///< growth rate k (paper: 12).
  int num_classes = 10;
  int in_channels = 3;

  /// Number of conv layers per dense block; aborts if depth is not 3m+4.
  int LayersPerBlock() const;
};

/// One dense layer: y = concat(x, Conv3x3(ReLU(BN(x)))) adding `growth`
/// channels; BN and ReLU run fused (BatchNorm::ForwardRelu).
class DenseLayer : public Module {
 public:
  DenseLayer(int64_t in_channels, int64_t growth, Rng* rng);

  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override;

 protected:
  Tensor ForwardImpl(const Tensor& input, Tape* tape) override;
  Tensor BackwardImpl(const Tensor& grad_output, Tape* tape) override;

 private:
  int64_t in_channels_;
  BatchNorm bn_;
  Conv2d conv_;
};

/// Transition layer: BN-ReLU-Conv1x1-AvgPool2, keeping the channel count;
/// BN and ReLU run fused.
class TransitionLayer : public Module {
 public:
  TransitionLayer(int64_t in_channels, int64_t out_channels, Rng* rng);

  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override;

 protected:
  Tensor ForwardImpl(const Tensor& input, Tape* tape) override;
  Tensor BackwardImpl(const Tensor& grad_output, Tape* tape) override;

 private:
  BatchNorm bn_;
  Conv2d conv_;
};

/// The full densely connected classifier. Its input images are data
/// (Tape::MarkData): Backward returns an empty tensor, and the stem
/// computes its parameter gradients only.
class DenseNet : public Module {
 public:
  DenseNet(const DenseNetConfig& config, uint64_t seed);

  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override;
  void PackForEval() override;

  const DenseNetConfig& config() const { return config_; }

 protected:
  Tensor ForwardImpl(const Tensor& input, Tape* tape) override;
  Tensor BackwardImpl(const Tensor& grad_output, Tape* tape) override;

 private:
  DenseNetConfig config_;
  std::unique_ptr<Conv2d> stem_;
  std::vector<std::unique_ptr<Module>> body_;  // dense layers + transitions
  std::unique_ptr<BatchNorm> final_bn_;  ///< fused with the final ReLU
  GlobalAvgPool2d pool_;
  std::unique_ptr<Dense> classifier_;
};

}  // namespace edde

#endif  // EDDE_NN_DENSENET_H_
