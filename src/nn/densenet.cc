#include "nn/densenet.h"

#include "tensor/ops.h"
#include "utils/logging.h"

namespace edde {

int DenseNetConfig::LayersPerBlock() const {
  EDDE_CHECK_EQ((depth - 4) % 3, 0) << "DenseNet depth must be 3m+4";
  return (depth - 4) / 3;
}

DenseLayer::DenseLayer(int64_t in_channels, int64_t growth, Rng* rng)
    : in_channels_(in_channels),
      bn_(in_channels),
      conv_(in_channels, growth, /*kernel=*/3, /*stride=*/1, /*padding=*/1,
            /*use_bias=*/false, rng) {}

Tensor DenseLayer::Forward(const Tensor& input, bool training) {
  Tensor h = bn_.Forward(input, training);
  h = relu_.Forward(h, training);
  h = conv_.Forward(h, training);
  return ConcatChannels(input, h);
}

Tensor DenseLayer::Backward(const Tensor& grad_output) {
  Tensor grad_skip, grad_new;
  SplitChannelsGrad(grad_output, in_channels_, &grad_skip, &grad_new);
  Tensor g = conv_.Backward(grad_new);
  g = relu_.Backward(g);
  g = bn_.Backward(g);
  Axpy(1.0f, grad_skip, &g);
  return g;
}

void DenseLayer::CollectParameters(std::vector<Parameter*>* out) {
  bn_.CollectParameters(out);
  conv_.CollectParameters(out);
}

std::string DenseLayer::name() const {
  return "dense_layer(+" + std::to_string(conv_.geom().out_channels) + ")";
}

void DenseLayer::SetPrecision(Precision precision) {
  precision_ = precision;
  conv_.SetPrecision(precision);
}

TransitionLayer::TransitionLayer(int64_t in_channels, int64_t out_channels,
                                 Rng* rng)
    : bn_(in_channels),
      conv_(in_channels, out_channels, /*kernel=*/1, /*stride=*/1,
            /*padding=*/0, /*use_bias=*/false, rng) {}

Tensor TransitionLayer::Forward(const Tensor& input, bool training) {
  Tensor h = bn_.Forward(input, training);
  h = relu_.Forward(h, training);
  h = conv_.Forward(h, training);
  if (training) cached_conv_out_shape_ = h.shape();
  return AvgPool2dForward(h, /*window=*/2);
}

Tensor TransitionLayer::Backward(const Tensor& grad_output) {
  EDDE_CHECK_GT(cached_conv_out_shape_.rank(), 0) << "Backward before Forward";
  Tensor g = AvgPool2dBackward(cached_conv_out_shape_, grad_output,
                               /*window=*/2);
  g = conv_.Backward(g);
  g = relu_.Backward(g);
  return bn_.Backward(g);
}

void TransitionLayer::CollectParameters(std::vector<Parameter*>* out) {
  bn_.CollectParameters(out);
  conv_.CollectParameters(out);
}

std::string TransitionLayer::name() const { return "transition"; }

void TransitionLayer::SetPrecision(Precision precision) {
  precision_ = precision;
  conv_.SetPrecision(precision);
}

DenseNet::DenseNet(const DenseNetConfig& config, uint64_t seed)
    : config_(config) {
  Rng rng(seed);
  const int m = config.LayersPerBlock();
  const int64_t g = config.growth;
  int64_t channels = 2 * g;  // conventional stem width 2k
  stem_ = std::make_unique<Conv2d>(config.in_channels, channels, /*kernel=*/3,
                                   /*stride=*/1, /*padding=*/1,
                                   /*use_bias=*/false, &rng);
  for (int block = 0; block < 3; ++block) {
    for (int layer = 0; layer < m; ++layer) {
      body_.push_back(std::make_unique<DenseLayer>(channels, g, &rng));
      channels += g;
    }
    if (block < 2) {
      body_.push_back(std::make_unique<TransitionLayer>(channels, channels,
                                                        &rng));
    }
  }
  final_bn_ = std::make_unique<BatchNorm>(channels);
  classifier_ = std::make_unique<Dense>(channels, config.num_classes, &rng);
}

Tensor DenseNet::Forward(const Tensor& input, bool training) {
  Tensor x = stem_->Forward(input, training);
  for (auto& layer : body_) x = layer->Forward(x, training);
  x = final_bn_->Forward(x, training);
  x = final_relu_.Forward(x, training);
  x = pool_.Forward(x, training);
  return classifier_->Forward(x, training);
}

Tensor DenseNet::Backward(const Tensor& grad_output) {
  Tensor g = classifier_->Backward(grad_output);
  g = pool_.Backward(g);
  g = final_relu_.Backward(g);
  g = final_bn_->Backward(g);
  for (auto it = body_.rbegin(); it != body_.rend(); ++it) {
    g = (*it)->Backward(g);
  }
  stem_->BackwardParams(g);
  return Tensor();  // the input is data
}

void DenseNet::CollectParameters(std::vector<Parameter*>* out) {
  stem_->CollectParameters(out);
  for (auto& layer : body_) layer->CollectParameters(out);
  final_bn_->CollectParameters(out);
  classifier_->CollectParameters(out);
}

std::string DenseNet::name() const {
  return "densenet" + std::to_string(config_.depth) + "(k" +
         std::to_string(config_.growth) + ")";
}

void DenseNet::SetPrecision(Precision precision) {
  precision_ = precision;
  stem_->SetPrecision(precision);
  for (auto& layer : body_) layer->SetPrecision(precision);
  classifier_->SetPrecision(precision);
}

}  // namespace edde
