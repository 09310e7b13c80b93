#include "nn/resnet.h"

#include "tensor/ops.h"
#include "utils/logging.h"

namespace edde {

int ResNetConfig::BlocksPerStage() const {
  EDDE_CHECK_EQ((depth - 2) % 6, 0) << "ResNet depth must be 6n+2";
  return (depth - 2) / 6;
}

ResidualBlock::ResidualBlock(int64_t in_channels, int64_t out_channels,
                             int64_t stride, Rng* rng)
    : has_projection_(stride != 1 || in_channels != out_channels),
      conv1_(in_channels, out_channels, /*kernel=*/3, stride, /*padding=*/1,
             /*use_bias=*/false, rng),
      bn1_(out_channels),
      conv2_(out_channels, out_channels, /*kernel=*/3, /*stride=*/1,
             /*padding=*/1, /*use_bias=*/false, rng),
      bn2_(out_channels) {
  if (has_projection_) {
    proj_conv_ = std::make_unique<Conv2d>(in_channels, out_channels,
                                          /*kernel=*/1, stride, /*padding=*/0,
                                          /*use_bias=*/false, rng);
    proj_bn_ = std::make_unique<BatchNorm>(out_channels);
  }
}

Tensor ResidualBlock::ForwardImpl(const Tensor& input, Tape* tape) {
  Tensor branch = conv1_.Forward(input, tape);
  branch = bn1_.ForwardRelu(branch, Tensor(), tape);
  branch = conv2_.Forward(branch, tape);

  Tensor shortcut = input;
  if (has_projection_) {
    shortcut = proj_conv_->Forward(input, tape);
    shortcut = proj_bn_->Forward(shortcut, tape);
  }
  return bn2_.ForwardRelu(branch, shortcut, tape);
}

Tensor ResidualBlock::BackwardImpl(const Tensor& grad_output, Tape* tape) {
  Tensor grad_sum;  // the gradient at the addition, through the ReLU
  Tensor g = bn2_.BackwardRelu(grad_output, tape, &grad_sum);

  // Shortcut path (the tape holds it above the branch's conv2).
  Tensor grad_shortcut = grad_sum;
  if (has_projection_) {
    grad_shortcut = proj_bn_->Backward(grad_sum, tape);
    grad_shortcut = proj_conv_->Backward(grad_shortcut, tape);
  }

  // Branch path.
  g = conv2_.Backward(g, tape);
  g = bn1_.BackwardRelu(g, tape);
  Tensor grad_input = conv1_.Backward(g, tape);
  Axpy(1.0f, grad_shortcut, &grad_input);
  return grad_input;
}

void ResidualBlock::CollectParameters(std::vector<Parameter*>* out) {
  conv1_.CollectParameters(out);
  bn1_.CollectParameters(out);
  conv2_.CollectParameters(out);
  bn2_.CollectParameters(out);
  if (has_projection_) {
    proj_conv_->CollectParameters(out);
    proj_bn_->CollectParameters(out);
  }
}

std::string ResidualBlock::name() const {
  return "res_block(" + conv1_.name() + ")";
}

ResNet::ResNet(const ResNetConfig& config, uint64_t seed) : config_(config) {
  Rng rng(seed);
  const int n = config.BlocksPerStage();
  const int64_t w = config.base_width;
  stem_ = std::make_unique<Conv2d>(config.in_channels, w, /*kernel=*/3,
                                   /*stride=*/1, /*padding=*/1,
                                   /*use_bias=*/false, &rng);
  stem_bn_ = std::make_unique<BatchNorm>(w);

  int64_t in_ch = w;
  const int64_t stage_width[3] = {w, 2 * w, 4 * w};
  for (int stage = 0; stage < 3; ++stage) {
    for (int b = 0; b < n; ++b) {
      const int64_t stride = (stage > 0 && b == 0) ? 2 : 1;
      blocks_.push_back(std::make_unique<ResidualBlock>(
          in_ch, stage_width[stage], stride, &rng));
      in_ch = stage_width[stage];
    }
  }
  classifier_ = std::make_unique<Dense>(in_ch, config.num_classes, &rng);
}

Tensor ResNet::ForwardImpl(const Tensor& input, Tape* tape) {
  if (tape != nullptr) tape->MarkData(input);
  Tensor x = stem_->Forward(input, tape);
  x = stem_bn_->ForwardRelu(x, Tensor(), tape);
  for (auto& block : blocks_) x = block->Forward(x, tape);
  x = pool_.Forward(x, tape);
  return classifier_->Forward(x, tape);
}

Tensor ResNet::BackwardImpl(const Tensor& grad_output, Tape* tape) {
  Tensor g = classifier_->Backward(grad_output, tape);
  g = pool_.Backward(g, tape);
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    g = (*it)->Backward(g, tape);
  }
  g = stem_bn_->BackwardRelu(g, tape);
  return stem_->Backward(g, tape);  // empty: the input is data
}

void ResNet::CollectParameters(std::vector<Parameter*>* out) {
  stem_->CollectParameters(out);
  stem_bn_->CollectParameters(out);
  for (auto& block : blocks_) block->CollectParameters(out);
  classifier_->CollectParameters(out);
}

std::string ResNet::name() const {
  return "resnet" + std::to_string(config_.depth) + "(w" +
         std::to_string(config_.base_width) + ")";
}

void ResNet::PackForEval() { classifier_->PackForEval(); }

}  // namespace edde
