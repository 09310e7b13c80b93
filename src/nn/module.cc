#include "nn/module.h"

#include "utils/logging.h"

namespace edde {

Tensor Module::Forward(const Tensor& input, bool training) {
  if (!training) return ForwardImpl(input, nullptr);
  if (tape_ == nullptr) tape_ = std::make_unique<Tape>();
  tape_->Reset();
  return ForwardImpl(input, tape_.get());
}

Tensor Module::Backward(const Tensor& grad_output) {
  EDDE_CHECK(tape_ != nullptr) << "Backward before Forward";
  return BackwardImpl(grad_output, tape_.get());
}

std::vector<Parameter*> Module::Parameters() {
  std::vector<Parameter*> out;
  CollectParameters(&out);
  return out;
}

void Module::ZeroGrad() {
  for (Parameter* p : Parameters()) {
    if (!p->grad.empty()) p->grad.Fill(0.0f);
  }
}

int64_t Module::NumParameters(bool trainable_only) {
  int64_t total = 0;
  for (Parameter* p : Parameters()) {
    if (trainable_only && !p->trainable) continue;
    total += p->value.num_elements();
  }
  return total;
}

void InitGrad(Parameter* param) {
  param->grad = Tensor(param->value.shape(), 0.0f);
}

}  // namespace edde
