#ifndef EDDE_ENSEMBLE_METHOD_H_
#define EDDE_ENSEMBLE_METHOD_H_

#include <string>
#include <utility>
#include <vector>

#include "ensemble/ensemble_model.h"
#include "ensemble/trainer.h"

namespace edde {

/// Crash-consistent checkpointing of a training run (DESIGN.md §11).
/// When `dir` is set, methods write a checkpoint *generation* every `every`
/// completed rounds (atomic, CRC-framed; see ensemble/run_checkpoint) and
/// an *inflight* checkpoint of the member currently training every `every`
/// epochs. `every` = 0 writes a generation every round and no inflight
/// checkpoints. On start with `resume`, the newest generation that passes
/// every CRC is loaded and training continues bit-identically to an
/// uninterrupted run.
struct CheckpointConfig {
  std::string dir;    ///< Empty: checkpointing disabled (zero overhead).
  int every = 1;      ///< Cadence in rounds (generations) and epochs (inflight).
  int keep = 3;       ///< Generations retained; older ones are deleted.
  bool resume = true; ///< Load the newest valid generation on Train().
};

/// Budget and training hyper-parameters shared by every ensemble method.
/// The paper compares methods at equal *total epochs*; benches configure
/// num_members × epochs_per_member so budgets match across methods.
struct MethodConfig {
  int num_members = 4;
  int epochs_per_member = 10;
  int64_t batch_size = 64;
  SgdConfig sgd;
  bool augment = false;
  AugmentConfig augment_config;
  uint64_t seed = 7;
  CheckpointConfig checkpoint;
};

/// One point of a training-budget/accuracy curve: cumulative training
/// epochs spent so far, and the ensemble's test accuracy at that point.
using CurvePoint = std::pair<int, double>;

/// Optional accuracy-vs-budget probe (the paper's Fig. 7): when `eval` is
/// set, methods append a CurvePoint after each round (each member; Single
/// at each member-budget boundary). Points of rounds restored from a
/// checkpoint are replayed from it.
struct EvalCurve {
  const Dataset* eval = nullptr;
  std::vector<CurvePoint>* points = nullptr;

  bool enabled() const { return eval != nullptr && points != nullptr; }
};

/// Abstract ensemble training method. Implementations: SingleModel,
/// Bagging, AdaBoostM1, AdaBoostNC, SnapshotEnsemble, Bans (ensemble/) and
/// EddeMethod (core/).
class EnsembleMethod {
 public:
  virtual ~EnsembleMethod() = default;

  /// Trains an ensemble on `train` using base models from `factory`.
  virtual EnsembleModel Train(const Dataset& train,
                              const ModelFactory& factory,
                              const EvalCurve& curve = {}) = 0;

  /// Display name used in benchmark tables ("Snapshot", "EDDE", ...).
  virtual std::string name() const = 0;
};

}  // namespace edde

#endif  // EDDE_ENSEMBLE_METHOD_H_
