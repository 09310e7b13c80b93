#ifndef EDDE_NN_CHECKPOINT_H_
#define EDDE_NN_CHECKPOINT_H_

#include <cstdint>

#include "nn/module.h"
#include "utils/durable_io.h"
#include "utils/status.h"

namespace edde {

/// On-disk element type of saved parameter tensors.
///   kFloat32 — bit-exact round trip (default; loaded predictions are
///              identical to the saved model's).
///   kFloat16 — IEEE binary16 with round-to-nearest-even, ~2× smaller
///              artifacts at ≤ 2^-11 relative weight error. In-memory
///              compute stays float32 either way.
enum class ArtifactDtype : uint32_t {
  kFloat32 = 0,
  kFloat16 = 1,
};

/// Appends every parameter (including non-trainable buffers such as
/// batch-norm running statistics) to a section payload as name, shape and
/// values stored as `dtype` — the member encoding of ensemble artifacts and
/// run checkpoints.
void WriteModuleParams(Module* module, SectionWriter* out,
                       ArtifactDtype dtype = ArtifactDtype::kFloat32);

/// Restores parameters written by WriteModuleParams with the same `dtype`
/// into a structurally identical module. A parameter count or shape that
/// disagrees with the module is InvalidArgument; an implausible rank, a
/// negative dimension or a short payload is Corruption. Never aborts on
/// hostile bytes. All or nothing: on any error no parameter is written.
Status ReadModuleParams(Module* module, SectionReader* in,
                        ArtifactDtype dtype = ArtifactDtype::kFloat32);

/// In-memory parameter copy from `src` to `dst`. The modules must be
/// structurally identical. Copies values only (not gradients).
Status CopyParameters(Module* src, Module* dst);

}  // namespace edde

#endif  // EDDE_NN_CHECKPOINT_H_
