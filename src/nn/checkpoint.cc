#include "nn/checkpoint.h"

#include <vector>

#include "tensor/quantize.h"

namespace edde {

namespace {
constexpr uint64_t kMaxRank = 8;
}  // namespace

void WriteModuleParams(Module* module, SectionWriter* out,
                       ArtifactDtype dtype) {
  auto params = module->Parameters();
  out->WriteU64(params.size());
  std::vector<uint16_t> halves;
  for (Parameter* p : params) {
    out->WriteString(p->name);
    const auto& dims = p->value.shape().dims();
    out->WriteU64(dims.size());
    for (int64_t d : dims) out->WriteI64(d);
    const size_t count = static_cast<size_t>(p->value.num_elements());
    if (dtype == ArtifactDtype::kFloat16) {
      halves.resize(count);
      FloatsToHalfs(p->value.data(), halves.data(), count);
      out->WriteBytes(halves.data(), count * sizeof(uint16_t));
    } else {
      out->WriteFloats(p->value.data(), count);
    }
  }
}

Status ReadModuleParams(Module* module, SectionReader* in,
                        ArtifactDtype dtype) {
  auto params = module->Parameters();
  uint64_t count = 0;
  if (!in->ReadU64(&count)) return in->status();
  if (count != params.size()) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(count) + " parameters, model has " +
        std::to_string(params.size()));
  }
  std::vector<uint16_t> halves;
  for (Parameter* p : params) {
    std::string name;
    if (!in->ReadString(&name)) return in->status();
    // Rank and dims come from the file: bound them before they size an
    // allocation or reach Shape's non-negativity check.
    uint64_t rank = 0;
    if (!in->ReadU64(&rank)) return in->status();
    if (rank > kMaxRank) return Status::Corruption("implausible tensor rank");
    std::vector<int64_t> dims(rank);
    for (auto& d : dims) {
      if (!in->ReadI64(&d)) return in->status();
      if (d < 0) return Status::Corruption("negative dimension");
    }
    if (dims != p->value.shape().dims()) {
      return Status::InvalidArgument("checkpoint shape mismatch for " + name);
    }
    // The element count comes from the module's shape, not the file, so a
    // truncated payload fails the bounded read instead of driving an
    // allocation.
    const size_t elements = static_cast<size_t>(p->value.num_elements());
    if (dtype == ArtifactDtype::kFloat16) {
      halves.resize(elements);
      if (!in->ReadRaw(halves.data(), elements * sizeof(uint16_t))) {
        return in->status();
      }
      HalfsToFloats(halves.data(), p->value.data(), elements);
    } else if (!in->ReadFloats(p->value.data(), elements)) {
      return in->status();
    }
  }
  return Status::OK();
}

Status CopyParameters(Module* src, Module* dst) {
  auto sp = src->Parameters();
  auto dp = dst->Parameters();
  if (sp.size() != dp.size()) {
    return Status::InvalidArgument("parameter count mismatch: " +
                                   std::to_string(sp.size()) + " vs " +
                                   std::to_string(dp.size()));
  }
  for (size_t i = 0; i < sp.size(); ++i) {
    if (sp[i]->value.shape() != dp[i]->value.shape()) {
      return Status::InvalidArgument("parameter shape mismatch at index " +
                                     std::to_string(i));
    }
    dp[i]->value.CopyFrom(sp[i]->value);
  }
  return Status::OK();
}

}  // namespace edde
