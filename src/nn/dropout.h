#ifndef EDDE_NN_DROPOUT_H_
#define EDDE_NN_DROPOUT_H_

#include <string>
#include <vector>

#include "nn/module.h"
#include "tensor/rng.h"

namespace edde {

/// Inverted dropout: during training each element is zeroed with probability
/// `rate` and survivors are scaled by 1/(1-rate); identity at eval time.
class Dropout : public Module {
 public:
  /// `rate` in [0, 1); `seed` makes the mask stream reproducible.
  Dropout(float rate, uint64_t seed);

  void CollectParameters(std::vector<Parameter*>* out) override;
  std::string name() const override;

 protected:
  Tensor ForwardImpl(const Tensor& input, Tape* tape) override;
  Tensor BackwardImpl(const Tensor& grad_output, Tape* tape) override;

 private:
  float rate_;
  Rng rng_;  ///< the mask stream, drawn by training Forwards
};

}  // namespace edde

#endif  // EDDE_NN_DROPOUT_H_
