#ifndef EDDE_NN_EMBEDDING_H_
#define EDDE_NN_EMBEDDING_H_

#include <string>
#include <vector>

#include "nn/module.h"
#include "tensor/rng.h"

namespace edde {

/// Token embedding lookup.
///
/// Input: (N, L) tensor whose floats hold integer token ids in
/// [0, vocab_size). Output: (N, E, L) — embedding dimensions become channels
/// so the result feeds Conv1d directly (TextCNN layout).
/// Backward accumulates into the embedding table and returns an empty tensor
/// (token ids are not differentiable).
class Embedding : public Module {
 public:
  Embedding(int64_t vocab_size, int64_t embed_dim, Rng* rng);

  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override;

  int64_t vocab_size() const { return vocab_size_; }
  int64_t embed_dim() const { return embed_dim_; }

 protected:
  Tensor ForwardImpl(const Tensor& input, Tape* tape) override;
  Tensor BackwardImpl(const Tensor& grad_output, Tape* tape) override;

 private:
  int64_t vocab_size_;
  int64_t embed_dim_;
  Parameter table_;  // (vocab, embed_dim)
};

}  // namespace edde

#endif  // EDDE_NN_EMBEDDING_H_
