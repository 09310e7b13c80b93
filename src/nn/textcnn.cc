#include "nn/textcnn.h"

#include <cstring>

#include "tensor/ops.h"
#include "utils/logging.h"

namespace edde {

TextCnn::TextCnn(const TextCnnConfig& config, uint64_t seed)
    : config_(config) {
  Rng rng(seed);
  embedding_ = std::make_unique<Embedding>(config.vocab_size,
                                           config.embed_dim, &rng);
  for (int k : config.kernel_sizes) {
    EDDE_CHECK_LE(k, config.seq_len) << "kernel larger than sequence";
    convs_.push_back(std::make_unique<Conv1d>(config.embed_dim,
                                              config.filters_per_size, k,
                                              /*use_bias=*/true, &rng));
    relus_.push_back(std::make_unique<ReLU>());
  }
  dropout_ = std::make_unique<Dropout>(config.dropout_rate);
  const int64_t feat = static_cast<int64_t>(config.kernel_sizes.size()) *
                       config.filters_per_size;
  classifier_ = std::make_unique<Dense>(feat, config.num_classes, &rng);
}

Tensor TextCnn::ForwardImpl(const Tensor& input, Tape* tape) {
  const int64_t n = input.shape().dim(0);
  Tensor embedded = embedding_->Forward(input, tape);  // (N, E, L)

  const int64_t f = config_.filters_per_size;
  const int64_t branches = static_cast<int64_t>(convs_.size());
  Tensor features = NewTensor(tape, Shape{n, branches * f});
  for (size_t b = 0; b < convs_.size(); ++b) {
    Tensor h = convs_[b]->Forward(embedded, tape);  // (N, F, OL)
    h = relus_[b]->Forward(h, tape);
    if (tape != nullptr) tape->Save(h);  // the pooling's argmax source
    const Tensor pooled =
        MaxOverTimeForward(h, NewTensor(tape, Shape{n, f}));  // (N, F)
    for (int64_t i = 0; i < n; ++i) {
      std::memcpy(
          features.data() + i * branches * f + static_cast<int64_t>(b) * f,
          pooled.data() + i * f, sizeof(float) * f);
    }
  }
  Tensor dropped = dropout_->Forward(features, tape);
  return classifier_->Forward(dropped, tape);
}

Tensor TextCnn::BackwardImpl(const Tensor& grad_output, Tape* tape) {
  Tensor g = classifier_->Backward(grad_output, tape);
  g = dropout_->Backward(g, tape);  // (N, branches*F)

  const int64_t n = g.shape().dim(0);
  const int64_t f = config_.filters_per_size;
  const int64_t branches = static_cast<int64_t>(convs_.size());

  // The tape gives the branches back last first; their input gradients
  // are summed in branch order, as the forward visited them.
  std::vector<Tensor> grad_branch(convs_.size());
  for (size_t b = convs_.size(); b-- > 0;) {
    Tensor grad_pooled = tape->NewTensor(Shape{n, f});
    for (int64_t i = 0; i < n; ++i) {
      std::memcpy(grad_pooled.data() + i * f,
                  g.data() + i * branches * f + static_cast<int64_t>(b) * f,
                  sizeof(float) * f);
    }
    const Tensor h = tape->Take();
    Tensor gh = MaxOverTimeBackward(h, grad_pooled,
                                    tape->NewTensor(h.shape()));
    gh = relus_[b]->Backward(gh, tape);
    grad_branch[b] = convs_[b]->Backward(gh, tape);  // (N, E, L)
  }
  Tensor grad_embedded = grad_branch[0];
  for (size_t b = 1; b < grad_branch.size(); ++b) {
    Axpy(1.0f, grad_branch[b], &grad_embedded);
  }
  return embedding_->Backward(grad_embedded, tape);  // empty: ids
}

void TextCnn::CollectParameters(std::vector<Parameter*>* out) {
  embedding_->CollectParameters(out);
  for (auto& conv : convs_) conv->CollectParameters(out);
  classifier_->CollectParameters(out);
}

std::string TextCnn::name() const {
  return "textcnn(v" + std::to_string(config_.vocab_size) + ",e" +
         std::to_string(config_.embed_dim) + ")";
}

void TextCnn::PackForEval() { classifier_->PackForEval(); }

}  // namespace edde
