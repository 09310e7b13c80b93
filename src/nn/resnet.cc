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

Tensor ResidualBlock::Forward(const Tensor& input, bool training) {
  Tensor branch = conv1_.Forward(input, training);
  branch = bn1_.Forward(branch, training);
  branch = relu1_.Forward(branch, training);
  branch = conv2_.Forward(branch, training);
  branch = bn2_.Forward(branch, training);

  Tensor shortcut = input;
  if (has_projection_) {
    shortcut = proj_conv_->Forward(input, training);
    shortcut = proj_bn_->Forward(shortcut, training);
  }

  return out_relu_.Forward(Add(branch, shortcut), training);
}

Tensor ResidualBlock::Backward(const Tensor& grad_output) {
  const Tensor grad_sum = out_relu_.Backward(grad_output);

  // Branch path.
  Tensor g = bn2_.Backward(grad_sum);
  g = conv2_.Backward(g);
  g = relu1_.Backward(g);
  g = bn1_.Backward(g);
  Tensor grad_input = conv1_.Backward(g);

  // Shortcut path.
  if (has_projection_) {
    Tensor gs = proj_bn_->Backward(grad_sum);
    gs = proj_conv_->Backward(gs);
    Axpy(1.0f, gs, &grad_input);
  } else {
    Axpy(1.0f, grad_sum, &grad_input);
  }
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

void ResidualBlock::SetPrecision(Precision precision) {
  precision_ = precision;
  conv1_.SetPrecision(precision);
  conv2_.SetPrecision(precision);
  if (has_projection_) proj_conv_->SetPrecision(precision);
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

Tensor ResNet::Forward(const Tensor& input, bool training) {
  Tensor x = stem_->Forward(input, training);
  x = stem_bn_->Forward(x, training);
  x = stem_relu_.Forward(x, training);
  for (auto& block : blocks_) x = block->Forward(x, training);
  x = pool_.Forward(x, training);
  return classifier_->Forward(x, training);
}

Tensor ResNet::Backward(const Tensor& grad_output) {
  Tensor g = classifier_->Backward(grad_output);
  g = pool_.Backward(g);
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    g = (*it)->Backward(g);
  }
  g = stem_relu_.Backward(g);
  g = stem_bn_->Backward(g);
  stem_->BackwardParams(g);
  return Tensor();  // the input is data
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

void ResNet::SetPrecision(Precision precision) {
  precision_ = precision;
  stem_->SetPrecision(precision);
  for (auto& block : blocks_) block->SetPrecision(precision);
  classifier_->SetPrecision(precision);
}

}  // namespace edde
