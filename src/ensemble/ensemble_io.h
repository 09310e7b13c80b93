#ifndef EDDE_ENSEMBLE_ENSEMBLE_IO_H_
#define EDDE_ENSEMBLE_ENSEMBLE_IO_H_

#include <string>

#include "ensemble/ensemble_model.h"
#include "ensemble/trainer.h"
#include "nn/checkpoint.h"
#include "utils/status.h"

namespace edde {

struct EnsembleSaveOptions {
  ArtifactDtype dtype = ArtifactDtype::kFloat32;
};

/// Serializes a trained ensemble — every member's parameters plus its
/// combination weight α — into one binary file.
///
/// Format v3: a magic word followed by CRC-framed sections (utils/
/// durable_io): one header section (member count, dtype, the input feature
/// dim and class count derived from the first member) and one section per
/// member. The file is committed atomically; a torn or bit-flipped file is
/// detected by the frame CRCs on load.
Status SaveEnsemble(const EnsembleModel& ensemble, const std::string& path,
                    const EnsembleSaveOptions& options);

inline Status SaveEnsemble(const EnsembleModel& ensemble,
                           const std::string& path) {
  return SaveEnsemble(ensemble, path, EnsembleSaveOptions());
}

/// The input feature dim / class count implied by a live ensemble's member
/// weight shapes (same derivation SaveEnsemble records in the v3 header).
/// 0 when the first member has no rank ≥ 2 parameter.
int64_t DerivedInputDim(const EnsembleModel& ensemble);
int64_t DerivedNumClasses(const EnsembleModel& ensemble);

/// Restores an ensemble saved with SaveEnsemble. Fresh member modules are
/// created through `factory` (which must build the same architecture the
/// ensemble was trained with); parameter-shape mismatches are rejected,
/// every section's CRC is checked before it is parsed, and a v3 header whose
/// recorded feature dim or class count disagrees with the loaded members'
/// actual weight shapes is rejected as Corruption.
Result<EnsembleModel> LoadEnsemble(const std::string& path,
                                   const ModelFactory& factory);

}  // namespace edde

#endif  // EDDE_ENSEMBLE_ENSEMBLE_IO_H_
