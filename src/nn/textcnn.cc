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
    convs_.push_back(std::make_unique<Conv1d>(
        config.embed_dim, config.filters_per_size, k, /*stride=*/1,
        /*padding=*/0, /*use_bias=*/true, &rng));
    relus_.push_back(std::make_unique<ReLU>());
  }
  dropout_ = std::make_unique<Dropout>(config.dropout_rate, rng.NextU64());
  const int64_t feat = static_cast<int64_t>(config.kernel_sizes.size()) *
                       config.filters_per_size;
  classifier_ = std::make_unique<Dense>(feat, config.num_classes, &rng);
}

Tensor TextCnn::Forward(const Tensor& input, bool training) {
  const int64_t n = input.shape().dim(0);
  Tensor embedded = embedding_->Forward(input, training);  // (N, E, L)

  const int64_t f = config_.filters_per_size;
  const int64_t branches = static_cast<int64_t>(convs_.size());
  Tensor features(Shape{n, branches * f});
  if (training) {
    conv_out_shapes_.assign(convs_.size(), Shape{});
    pool_argmax_.assign(convs_.size(), {});
  }
  std::vector<int64_t> eval_argmax;  // eval: computed and discarded

  for (size_t b = 0; b < convs_.size(); ++b) {
    Tensor h = convs_[b]->Forward(embedded, training);  // (N, F, OL)
    h = relus_[b]->Forward(h, training);
    if (training) conv_out_shapes_[b] = h.shape();
    Tensor pooled = MaxOverTimeForward(
        h, training ? &pool_argmax_[b] : &eval_argmax);  // (N, F)
    for (int64_t i = 0; i < n; ++i) {
      std::memcpy(
          features.data() + i * branches * f + static_cast<int64_t>(b) * f,
          pooled.data() + i * f, sizeof(float) * f);
    }
  }
  Tensor dropped = dropout_->Forward(features, training);
  return classifier_->Forward(dropped, training);
}

Tensor TextCnn::Backward(const Tensor& grad_output) {
  EDDE_CHECK(!conv_out_shapes_.empty()) << "Backward before Forward";
  Tensor g = classifier_->Backward(grad_output);
  g = dropout_->Backward(g);  // (N, branches*F)

  const int64_t n = g.shape().dim(0);
  const int64_t f = config_.filters_per_size;
  const int64_t branches = static_cast<int64_t>(convs_.size());

  Tensor grad_embedded;  // accumulated (N, E, L)
  for (size_t b = 0; b < convs_.size(); ++b) {
    Tensor grad_pooled(Shape{n, f});
    for (int64_t i = 0; i < n; ++i) {
      std::memcpy(grad_pooled.data() + i * f,
                  g.data() + i * branches * f + static_cast<int64_t>(b) * f,
                  sizeof(float) * f);
    }
    Tensor gh = MaxOverTimeBackward(conv_out_shapes_[b], grad_pooled,
                                    pool_argmax_[b]);
    gh = relus_[b]->Backward(gh);
    Tensor ge = convs_[b]->Backward(gh);  // (N, E, L)
    if (grad_embedded.empty()) {
      grad_embedded = ge;
    } else {
      Axpy(1.0f, ge, &grad_embedded);
    }
  }
  return embedding_->Backward(grad_embedded);  // empty: ids not differentiable
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

void TextCnn::SetPrecision(Precision precision) {
  precision_ = precision;
  embedding_->SetPrecision(precision);
  for (auto& conv : convs_) conv->SetPrecision(precision);
  classifier_->SetPrecision(precision);
}

}  // namespace edde
