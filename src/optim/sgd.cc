#include "optim/sgd.h"

#include "utils/logging.h"

namespace edde {

Sgd::Sgd(Module* module, const SgdConfig& config) : config_(config) {
  for (Parameter* p : module->Parameters()) {
    if (!p->trainable) continue;
    params_.push_back(p);
    velocity_.emplace_back(p->value.shape(), 0.0f);
  }
}

void Sgd::Step() {
  const float lr = config_.learning_rate;
  const float m = config_.momentum;
  const float wd = config_.weight_decay;
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    EDDE_CHECK(!p->grad.empty()) << "parameter has no gradient: " << p->name;
    float* w = p->value.data();
    const float* g = p->grad.data();
    float* v = velocity_[i].data();
    const int64_t n = p->value.num_elements();
    if (config_.nesterov) {
      for (int64_t j = 0; j < n; ++j) {
        const float grad = g[j] + wd * w[j];
        v[j] = m * v[j] + grad;
        w[j] -= lr * (grad + m * v[j]);
      }
    } else {
      for (int64_t j = 0; j < n; ++j) {
        const float grad = g[j] + wd * w[j];
        v[j] = m * v[j] + grad;
        w[j] -= lr * v[j];
      }
    }
  }
}

void Sgd::SaveState(SectionWriter* out) const {
  out->WriteU64(velocity_.size());
  for (const Tensor& v : velocity_) {
    out->WriteU64(static_cast<uint64_t>(v.num_elements()));
    out->WriteFloats(v.data(), static_cast<size_t>(v.num_elements()));
  }
}

Status Sgd::LoadState(SectionReader* in) {
  uint64_t count = 0;
  if (!in->ReadU64(&count)) return in->status();
  if (count != velocity_.size()) {
    return Status::Corruption("optimizer slot count mismatch: checkpoint " +
                              std::to_string(count) + ", module " +
                              std::to_string(velocity_.size()));
  }
  // Read into scratch and committed once every slot has read, so a file
  // refused at any slot leaves the momentum as it was.
  std::vector<Tensor> velocity;
  velocity.reserve(velocity_.size());
  for (const Tensor& v : velocity_) {
    uint64_t n = 0;
    if (!in->ReadU64(&n)) return in->status();
    if (n != static_cast<uint64_t>(v.num_elements())) {
      return Status::Corruption("optimizer slot size mismatch");
    }
    Tensor& slot = velocity.emplace_back(v.shape());
    if (!in->ReadFloats(slot.data(), static_cast<size_t>(n))) {
      return in->status();
    }
  }
  velocity_ = std::move(velocity);
  return Status::OK();
}

}  // namespace edde
