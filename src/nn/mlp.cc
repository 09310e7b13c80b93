#include "nn/mlp.h"

#include "nn/activation.h"
#include "nn/dense.h"

namespace edde {

Mlp::Mlp(const MlpConfig& config, uint64_t seed) : config_(config) {
  Rng rng(seed);
  int64_t in = config.in_features;
  for (int h : config.hidden) {
    body_.Add(std::make_unique<Dense>(in, h, &rng));
    body_.Add(std::make_unique<ReLU>());
    in = h;
  }
  body_.Add(std::make_unique<Dense>(in, config.num_classes, &rng));
}

Tensor Mlp::ForwardImpl(const Tensor& input, Tape* tape) {
  return body_.Forward(input, tape);
}

Tensor Mlp::BackwardImpl(const Tensor& grad_output, Tape* tape) {
  return body_.Backward(grad_output, tape);
}

void Mlp::CollectParameters(std::vector<Parameter*>* out) {
  body_.CollectParameters(out);
}

std::string Mlp::name() const {
  return "mlp(" + std::to_string(config_.in_features) + "->" +
         std::to_string(config_.num_classes) + ")";
}

void Mlp::PackForEval() { body_.PackForEval(); }

}  // namespace edde
