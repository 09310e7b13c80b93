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

Tensor DenseLayer::ForwardImpl(const Tensor& input, Tape* tape) {
  Tensor h = bn_.ForwardRelu(input, Tensor(), tape);
  h = conv_.Forward(h, tape);
  return ConcatChannels(input, h);
}

Tensor DenseLayer::BackwardImpl(const Tensor& grad_output, Tape* tape) {
  Tensor grad_skip, grad_new;
  SplitChannelsGrad(grad_output, in_channels_, &grad_skip, &grad_new);
  Tensor g = conv_.Backward(grad_new, tape);
  g = bn_.BackwardRelu(g, tape);
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

TransitionLayer::TransitionLayer(int64_t in_channels, int64_t out_channels,
                                 Rng* rng)
    : bn_(in_channels),
      conv_(in_channels, out_channels, /*kernel=*/1, /*stride=*/1,
            /*padding=*/0, /*use_bias=*/false, rng) {}

Tensor TransitionLayer::ForwardImpl(const Tensor& input, Tape* tape) {
  Tensor h = bn_.ForwardRelu(input, Tensor(), tape);
  h = conv_.Forward(h, tape);
  if (tape != nullptr) tape->Save(h);  // the pooling's input shape
  return AvgPool2dForward(h, /*window=*/2);
}

Tensor TransitionLayer::BackwardImpl(const Tensor& grad_output, Tape* tape) {
  Tensor g = AvgPool2dBackward(tape->Take().shape(), grad_output,
                               /*window=*/2);
  g = conv_.Backward(g, tape);
  return bn_.BackwardRelu(g, tape);
}

void TransitionLayer::CollectParameters(std::vector<Parameter*>* out) {
  bn_.CollectParameters(out);
  conv_.CollectParameters(out);
}

std::string TransitionLayer::name() const { return "transition"; }

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

Tensor DenseNet::ForwardImpl(const Tensor& input, Tape* tape) {
  if (tape != nullptr) tape->MarkData(input);
  Tensor x = stem_->Forward(input, tape);
  for (auto& layer : body_) x = layer->Forward(x, tape);
  x = final_bn_->ForwardRelu(x, Tensor(), tape);
  x = pool_.Forward(x, tape);
  return classifier_->Forward(x, tape);
}

Tensor DenseNet::BackwardImpl(const Tensor& grad_output, Tape* tape) {
  Tensor g = classifier_->Backward(grad_output, tape);
  g = pool_.Backward(g, tape);
  g = final_bn_->BackwardRelu(g, tape);
  for (auto it = body_.rbegin(); it != body_.rend(); ++it) {
    g = (*it)->Backward(g, tape);
  }
  return stem_->Backward(g, tape);  // empty: the input is data
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

void DenseNet::PackForEval() { classifier_->PackForEval(); }

}  // namespace edde
