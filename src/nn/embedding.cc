#include "nn/embedding.h"

#include <cmath>

#include "utils/logging.h"

namespace edde {

Embedding::Embedding(int64_t vocab_size, int64_t embed_dim, Rng* rng)
    : vocab_size_(vocab_size), embed_dim_(embed_dim) {
  table_.name = "table";
  table_.value = Tensor(Shape{vocab_size, embed_dim});
  // Small uniform init, as is conventional for embeddings.
  table_.value.FillUniform(rng, -0.05f, 0.05f);
  InitGrad(&table_);
}

Tensor Embedding::ForwardImpl(const Tensor& input, Tape* tape) {
  EDDE_CHECK_EQ(input.shape().rank(), 2);
  if (tape != nullptr) tape->Save(input);
  const int64_t n = input.shape().dim(0);
  const int64_t len = input.shape().dim(1);
  Tensor output = NewTensor(tape, Shape{n, embed_dim_, len});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t t = 0; t < len; ++t) {
      const float v = input.data()[i * len + t];
      EDDE_CHECK(std::isfinite(v)) << "token id " << v;
      const int64_t id = static_cast<int64_t>(std::lround(v));
      EDDE_CHECK_GE(id, 0);
      EDDE_CHECK_LT(id, vocab_size_);
      const float* row = table_.value.data() + id * embed_dim_;
      for (int64_t e = 0; e < embed_dim_; ++e) {
        output.data()[(i * embed_dim_ + e) * len + t] = row[e];
      }
    }
  }
  return output;
}

Tensor Embedding::BackwardImpl(const Tensor& grad_output, Tape* tape) {
  const Tensor ids = tape->Take();
  const int64_t n = ids.shape().dim(0);
  const int64_t len = ids.shape().dim(1);
  EDDE_CHECK_EQ(grad_output.shape().dim(0), n);
  EDDE_CHECK_EQ(grad_output.shape().dim(1), embed_dim_);
  EDDE_CHECK_EQ(grad_output.shape().dim(2), len);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t t = 0; t < len; ++t) {
      const int64_t id = static_cast<int64_t>(
          std::lround(ids.data()[i * len + t]));
      float* grow = table_.grad.data() + id * embed_dim_;
      for (int64_t e = 0; e < embed_dim_; ++e) {
        grow[e] += grad_output.data()[(i * embed_dim_ + e) * len + t];
      }
    }
  }
  return Tensor();  // token ids carry no gradient
}

void Embedding::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&table_);
}

std::string Embedding::name() const {
  return "embedding(" + std::to_string(vocab_size_) + "x" +
         std::to_string(embed_dim_) + ")";
}

}  // namespace edde
