#include "nn/sequential.h"

#include "utils/logging.h"

namespace edde {

Module* Sequential::Add(std::unique_ptr<Module> layer) {
  layers_.push_back(std::move(layer));
  return layers_.back().get();
}

Tensor Sequential::ForwardImpl(const Tensor& input, Tape* tape) {
  Tensor x = input;
  for (auto& layer : layers_) x = layer->Forward(x, tape);
  return x;
}

Tensor Sequential::BackwardImpl(const Tensor& grad_output, Tape* tape) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->Backward(g, tape);
  }
  return g;
}

void Sequential::CollectParameters(std::vector<Parameter*>* out) {
  for (auto& layer : layers_) layer->CollectParameters(out);
}

std::string Sequential::name() const {
  std::string s = "sequential[";
  for (size_t i = 0; i < layers_.size(); ++i) {
    if (i > 0) s += ", ";
    s += layers_[i]->name();
  }
  return s + "]";
}

void Sequential::PackForEval() {
  for (auto& layer : layers_) layer->PackForEval();
}

}  // namespace edde
