#ifndef EDDE_TENSOR_RNG_H_
#define EDDE_TENSOR_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace edde {

/// Complete serialized Rng state. Round-tripping through
/// SaveState/RestoreState resumes the stream bit-identically, including a
/// Box–Muller second normal cached mid-pair.
struct RngState {
  uint64_t state[4] = {0, 0, 0, 0};
  bool has_cached_normal = false;
  double cached_normal = 0.0;
};

/// Deterministic pseudo-random number generator (xoshiro256** seeded via
/// SplitMix64). Every stochastic component in the library draws from an
/// explicitly passed Rng so whole experiments replay bit-identically from a
/// single seed.
class Rng {
 public:
  /// Seeds the generator; identical seeds yield identical streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform 64-bit integer.
  uint64_t NextU64();

  /// Uniform in [0, 1).
  double Uniform();

  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n);

  /// Standard normal via Box–Muller (cached second value).
  double Normal();

  /// Normal with given mean and stddev.
  double Normal(double mean, double stddev);

  /// Bernoulli(p).
  bool Bernoulli(double p);

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (int64_t i = static_cast<int64_t>(v->size()) - 1; i > 0; --i) {
      int64_t j = UniformInt(i + 1);
      std::swap((*v)[static_cast<size_t>(i)], (*v)[static_cast<size_t>(j)]);
    }
  }

  /// Derives an independent child generator (for reproducible sub-streams).
  Rng Fork();

  /// Snapshots the full generator state (checkpointing).
  RngState SaveState() const;

  /// Restores a snapshot; the stream continues exactly where it left off.
  void RestoreState(const RngState& s);

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace edde

#endif  // EDDE_TENSOR_RNG_H_
