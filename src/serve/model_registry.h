#ifndef EDDE_SERVE_MODEL_REGISTRY_H_
#define EDDE_SERVE_MODEL_REGISTRY_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ensemble/ensemble_model.h"
#include "utils/metrics.h"
#include "utils/status.h"

namespace edde {
namespace serve {

/// One immutable serving generation: an ensemble plus everything a batch
/// needs to evaluate it safely. Generations are reference-counted — a
/// batch pins its generation for the duration of its execution, so a hot
/// swap never frees a model out from under in-flight work; the old
/// generation dies when its last batch finishes (DESIGN.md §16).
struct ServingGeneration {
  std::shared_ptr<const EnsembleModel> model;
  /// Monotonic id, starting at 1. Stamped into responses, /statusz,
  /// metrics (serve.generation) and edde-top.
  uint64_t id = 0;
  /// Where the model came from ("<path>" for artifacts, caller-chosen for
  /// in-process swaps) — /statusz provenance.
  std::string source;
  /// serve.member_rows.<i>: rows each member evaluated, resolved once here
  /// so no stage pays a name build and a registry lookup.
  std::vector<Counter*> member_rows;

  ServingGeneration(std::shared_ptr<const EnsembleModel> m, uint64_t gen_id,
                    std::string src)
      : model(std::move(m)), id(gen_id), source(std::move(src)) {
    for (int64_t i = 0; i < model->size(); ++i) {
      member_rows.push_back(MetricsRegistry::Global().GetCounter(
          "serve.member_rows." + std::to_string(i)));
    }
  }
};

/// Holds the current serving generation and swaps it atomically under hot
/// reload. Readers (batch dispatch) Acquire() a shared_ptr snapshot —
/// cheap, wait-free of the swap path except for one mutex — and keep
/// evaluating their snapshot even while Install() publishes a successor.
///
/// Validation is the *caller's* job (the server checks geometry and
/// CheckPredictable before installing); the registry only guarantees
/// the swap itself is atomic and the generation id is monotonic.
class ModelRegistry {
 public:
  /// Installs the first generation (id 1). `model` must be non-null.
  ModelRegistry(std::shared_ptr<const EnsembleModel> model,
                std::string source);

  /// The current generation. Never null after construction.
  std::shared_ptr<const ServingGeneration> Acquire() const;

  /// Atomically publishes `model` as the next generation and returns its
  /// id. In-flight holders of the previous generation are unaffected.
  uint64_t Install(std::shared_ptr<const EnsembleModel> model,
                   std::string source);

  uint64_t generation_id() const;
  /// Total successful installs beyond the initial model.
  uint64_t reloads() const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ServingGeneration> current_;
  uint64_t next_id_ = 1;
};

}  // namespace serve
}  // namespace edde

#endif  // EDDE_SERVE_MODEL_REGISTRY_H_
