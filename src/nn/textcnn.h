#ifndef EDDE_NN_TEXTCNN_H_
#define EDDE_NN_TEXTCNN_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/activation.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/embedding.h"
#include "nn/module.h"

namespace edde {

/// Kim (2014) TextCNN configuration, as used by the paper's NLP experiments.
struct TextCnnConfig {
  int vocab_size = 1000;
  int embed_dim = 16;
  int seq_len = 32;
  std::vector<int> kernel_sizes = {3, 4, 5};
  int filters_per_size = 8;
  float dropout_rate = 0.5f;
  int num_classes = 2;
};

/// TextCNN: embedding -> parallel Conv1d branches (one per kernel size) ->
/// ReLU -> max-over-time pooling -> concat -> dropout -> dense classifier.
///
/// Input is an (N, L) tensor of token ids (stored as floats).
class TextCnn : public Module {
 public:
  TextCnn(const TextCnnConfig& config, uint64_t seed);

  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override;
  void PackForEval() override;

  const TextCnnConfig& config() const { return config_; }

 protected:
  Tensor ForwardImpl(const Tensor& input, Tape* tape) override;
  Tensor BackwardImpl(const Tensor& grad_output, Tape* tape) override;

 private:
  TextCnnConfig config_;
  std::unique_ptr<Embedding> embedding_;
  std::vector<std::unique_ptr<Conv1d>> convs_;
  std::vector<std::unique_ptr<ReLU>> relus_;
  std::unique_ptr<Dropout> dropout_;
  std::unique_ptr<Dense> classifier_;
};

}  // namespace edde

#endif  // EDDE_NN_TEXTCNN_H_
