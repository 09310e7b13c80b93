#include "ensemble/ensemble_io.h"

#include <vector>

#include "utils/durable_io.h"

namespace edde {

namespace {

// v3: magic + CRC-framed sections, fp16-capable, atomically committed.
constexpr uint32_t kEnsembleMagicV3 = 0xEDDE0003;
constexpr uint32_t kTagHeader = 1;
constexpr uint32_t kTagMember = 2;
constexpr uint32_t kFormatVersion = 1;
constexpr uint64_t kMaxMembers = 4096;

/// Input feature dimension implied by a member's weights: the non-leading
/// extent of the first (closest to the input) rank ≥ 2 parameter. Dense
/// (out, in) gives `in`; Conv (OC, C, k, k) gives C·k² — both are the
/// layer's per-output-channel fan-in. 0 when the member has no such tensor.
int64_t DeriveInputDim(const std::vector<Parameter*>& params) {
  for (const Parameter* p : params) {
    const Shape& s = p->value.shape();
    if (s.rank() < 2) continue;
    int64_t dim = 1;
    for (int64_t d = 1; d < s.rank(); ++d) dim *= s.dim(d);
    return dim;
  }
  return 0;
}

/// Class count implied by a member's weights: the leading extent of the
/// last rank ≥ 2 parameter (the classifier's output channels).
int64_t DeriveNumClasses(const std::vector<Parameter*>& params) {
  for (auto it = params.rbegin(); it != params.rend(); ++it) {
    const Shape& s = (*it)->value.shape();
    if (s.rank() >= 2) return s.dim(0);
  }
  return 0;
}

}  // namespace

int64_t DerivedInputDim(const EnsembleModel& ensemble) {
  if (ensemble.size() == 0) return 0;
  return DeriveInputDim(ensemble.member(0)->Parameters());
}

int64_t DerivedNumClasses(const EnsembleModel& ensemble) {
  if (ensemble.size() == 0) return 0;
  return DeriveNumClasses(ensemble.member(0)->Parameters());
}

Status SaveEnsemble(const EnsembleModel& ensemble, const std::string& path,
                    const EnsembleSaveOptions& options) {
  if (ensemble.size() == 0) {
    return Status::InvalidArgument("cannot save an empty ensemble");
  }
  auto params = ensemble.member(0)->Parameters();
  SectionWriter header;
  header.WriteU64(static_cast<uint64_t>(ensemble.size()));
  header.WriteU32(static_cast<uint32_t>(options.dtype));
  // Recorded so a loader can cross-check the members it reconstructs; a
  // disagreement means the file (or the factory) is lying about the
  // architecture.
  header.WriteI64(DeriveInputDim(params));
  header.WriteI64(DeriveNumClasses(params));

  std::vector<SectionWriter> members(static_cast<size_t>(ensemble.size()));
  std::vector<TaggedSection> sections = {{kTagHeader, &header}};
  for (int64_t t = 0; t < ensemble.size(); ++t) {
    SectionWriter& section = members[static_cast<size_t>(t)];
    section.WriteF32(static_cast<float>(ensemble.alpha(t)));
    WriteModuleParams(ensemble.member(t), &section, options.dtype);
    sections.push_back({kTagMember, &section});
  }
  return WriteSectionFile(path, kEnsembleMagicV3, kFormatVersion, sections);
}

Result<EnsembleModel> LoadEnsemble(const std::string& path,
                                   const ModelFactory& factory) {
  Result<SectionFile> read =
      ReadSectionFile(path, kEnsembleMagicV3, kFormatVersion);
  EDDE_RETURN_NOT_OK(read.status());
  SectionFile& file = read.ValueOrDie();
  SectionReader header;
  EDDE_RETURN_NOT_OK(file.Next(kTagHeader, &header));
  uint64_t members = 0;
  uint32_t dtype_raw = 0;
  int64_t recorded_input_dim = 0;
  int64_t recorded_num_classes = 0;
  if (!header.ReadU64(&members) || !header.ReadU32(&dtype_raw) ||
      !header.ReadI64(&recorded_input_dim) ||
      !header.ReadI64(&recorded_num_classes)) {
    return header.status();
  }
  if (members == 0 || members > kMaxMembers) {
    return Status::Corruption("implausible ensemble size");
  }
  if (dtype_raw > static_cast<uint32_t>(ArtifactDtype::kFloat16)) {
    return Status::Corruption("unknown artifact dtype " +
                              std::to_string(dtype_raw));
  }
  const ArtifactDtype dtype = static_cast<ArtifactDtype>(dtype_raw);

  EnsembleModel ensemble;
  for (uint64_t t = 0; t < members; ++t) {
    SectionReader section;
    EDDE_RETURN_NOT_OK(file.Next(kTagMember, &section));
    float alpha = 0.0f;
    if (!section.ReadF32(&alpha)) return section.status();
    if (!(alpha > 0.0f)) {
      return Status::Corruption("non-positive member weight");
    }
    std::unique_ptr<Module> member = factory(/*seed=*/t);
    EDDE_RETURN_NOT_OK(ReadModuleParams(member.get(), &section, dtype));
    // Satellite of DESIGN.md §13: a header that disagrees with the weight
    // shapes actually loaded means the file is internally inconsistent.
    if (t == 0) {
      const auto params = member->Parameters();
      const int64_t input_dim = DeriveInputDim(params);
      const int64_t num_classes = DeriveNumClasses(params);
      if (input_dim != recorded_input_dim) {
        return Status::Corruption(
            "recorded feature dim " + std::to_string(recorded_input_dim) +
            " disagrees with member weight shape (" +
            std::to_string(input_dim) + ")");
      }
      if (num_classes != recorded_num_classes) {
        return Status::Corruption(
            "recorded class count " + std::to_string(recorded_num_classes) +
            " disagrees with member weight shape (" +
            std::to_string(num_classes) + ")");
      }
    }
    ensemble.AddMember(std::move(member), alpha);
  }
  return ensemble;
}

}  // namespace edde
