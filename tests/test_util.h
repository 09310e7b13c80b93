#ifndef EDDE_TESTS_TEST_UTIL_H_
#define EDDE_TESTS_TEST_UTIL_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "nn/module.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace edde {
namespace testing {

/// Result of a finite-difference gradient verification.
struct GradCheckResult {
  double max_abs_error = 0.0;
  double max_rel_error = 0.0;
  int64_t checked = 0;
};

/// Verifies a module's Backward against central finite differences.
///
/// Builds the scalar objective f = Σ (probe ⊙ Forward(x)) for a fixed random
/// probe tensor, computes analytic input/parameter gradients via Backward,
/// then compares against (f(θ+ε) − f(θ−ε)) / 2ε elementwise. For large
/// tensors only `max_checks_per_tensor` randomly chosen coordinates are
/// probed. Training mode is used, so stochastic layers (dropout) must be
/// configured deterministically by the caller.
GradCheckResult CheckModuleGradients(Module* module, const Tensor& input,
                                     bool training, Rng* rng,
                                     double epsilon = 1e-3,
                                     int64_t max_checks_per_tensor = 24);

/// Convenience: asserts-style bound used by layer tests.
constexpr double kGradCheckTolerance = 2e-2;

/// Builds a k-class Gaussian-blob dataset with (N, dim) features — a cheap
/// learnable task for MLP-based ensemble tests. `spread` is the noise stddev
/// around the class centers (larger = harder).
Dataset MakeBlobs(int64_t n, int64_t dim, int num_classes, uint64_t seed,
                  float spread = 1.0f);

/// Train/test blob pair drawn from the *same* class centers (the train and
/// test sets of one task, not two different tasks).
struct BlobSplit {
  Dataset train;
  Dataset test;
};
BlobSplit MakeBlobsSplit(int64_t n_train, int64_t n_test, int64_t dim,
                         int num_classes, uint64_t seed, float spread = 1.0f);

/// Directional-derivative check for whole models: picks one random direction
/// d over all trainable parameters, compares the analytic ∇f·d against the
/// central difference (f(θ+εd) − f(θ−εd)) / 2ε. Robust to ReLU kinks that
/// break per-coordinate finite differences on deep float32 networks.
struct DirCheckResult {
  double analytic = 0.0;
  double numeric = 0.0;
  double rel_error = 0.0;
};
DirCheckResult CheckDirectionalDerivative(Module* module, const Tensor& input,
                                          bool training, Rng* rng,
                                          double epsilon = 1e-3);

/// Every parameter value of `m`, as bytes.
std::string ParameterBytes(Module* m);

/// The whole contents of `path` ("" when it cannot be read).
std::string ReadWholeFile(const std::string& path);
void WriteWholeFile(const std::string& path, const std::string& bytes);

/// The little-endian word at `offset` of `bytes`, and its store.
template <typename T>
T LoadWord(const std::string& bytes, size_t offset) {
  T v;
  std::memcpy(&v, bytes.data() + offset, sizeof(T));
  return v;
}
template <typename T>
void StoreWord(std::string* bytes, size_t offset, T v) {
  std::memcpy(&(*bytes)[offset], &v, sizeof(T));
}

/// One section of a framed file (utils/durable_io):
/// u32 tag | u32 version | u64 size | payload | u32 crc32(payload).
struct Frame {
  uint32_t tag = 0;
  uint32_t version = 0;
  std::string payload;
};

/// Splits a well-formed framed file into its magic word and sections.
std::vector<Frame> ParseFrames(const std::string& bytes, uint32_t* magic);

/// Frames `frames` again, each with the CRC of its (possibly hostile)
/// payload, so a reader parses the hostile bytes instead of stopping at
/// the CRC check.
std::string BuildFile(uint32_t magic, const std::vector<Frame>& frames);

}  // namespace testing
}  // namespace edde

#endif  // EDDE_TESTS_TEST_UTIL_H_
