#ifndef EDDE_ENSEMBLE_RUN_CHECKPOINT_H_
#define EDDE_ENSEMBLE_RUN_CHECKPOINT_H_

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "ensemble/method.h"
#include "ensemble/trainer.h"
#include "optim/sgd.h"
#include "tensor/rng.h"
#include "utils/durable_io.h"
#include "utils/status.h"

namespace edde {

/// Crash-consistent run checkpointing (DESIGN.md §11).
///
/// A *generation* is one file, `ckpt_<round>.edde`, capturing everything a
/// method needs to continue bit-identically after the given round: the
/// serialized member modules, the combination weights α, the boosting
/// sample-weight vector W_t, the method RNG stream, the Fig. 7 curve points
/// so far, and a method-state section (EDDE's round stats). Every piece
/// lives in a CRC32-framed section of one framed file (utils/durable_io),
/// committed atomically, so a generation is either fully valid or
/// detectably bad — resume walks generations newest-first and falls back
/// past corrupt ones instead of crashing.
///
/// An *inflight* checkpoint (`inflight_<slot>.edde`) covers a member still
/// training: model parameters, SGD momentum, the trainer RNG and the next
/// epoch index, fingerprint-guarded so a stale file from another run or
/// round is ignored. Member i of the ensemble trains in slot i+1.

/// The state of a method that a generation snapshots and Resume restores.
/// The method owns every object; a null field is state the method lacks.
struct RoundState {
  EnsembleModel* ensemble = nullptr;        ///< Members and α; required.
  Rng* rng = nullptr;                       ///< Method RNG stream.
  std::vector<double>* weights = nullptr;   ///< Boosting W_t.
};

/// The round loop of one EnsembleMethod::Train call. Every method runs
/// through it: it turns the MethodConfig into each member's TrainConfig,
/// trains members and exits gracefully on SIGINT/SIGTERM, resumes a run
/// from its newest usable generation, and ends each round with its curve
/// point, its generation and the removal of superseded inflight files.
///
/// Methods call, per round: MemberConfig → TrainMember → (their own α /
/// W_t update, and AddMember) → EndRound. With no checkpoint dir configured
/// Resume restores nothing and EndRound only records the curve point. The
/// object draws nothing from the method RNG, so trained ensembles are
/// bit-identical with checkpointing on or off.
///
/// The generation dir is `<dir>/<run fingerprint, 16 hex digits>/`, so
/// runs sharing one --checkpoint_dir — other methods, architectures or
/// data — never read or rotate each other's files.
/// Thread-compatible: Bagging, whose members complete concurrently, calls
/// EndRound under its own mutex.
class RoundCheckpointer {
 public:
  /// `factory` builds the members. With checkpointing on, the run
  /// fingerprint covers the method and its config, the contents of `train`,
  /// and the parameter names and shapes of `factory(0)`, so files of other
  /// data or another architecture never match — not even a generation with
  /// no member to shape-check (Single's before its last round).
  RoundCheckpointer(const MethodConfig& config, const std::string& method_name,
                    const Dataset& train, const ModelFactory& factory,
                    const EvalCurve& curve, const RoundState& state);

  /// When checkpointing and resume are on, loads the newest generation
  /// whose sections all pass CRC and whose fingerprint and version match,
  /// and restores from it the members and α, the RNG, W_t, the completed
  /// rounds, and the curve points (appended to the EvalCurve).
  /// Members are rebuilt through `factory(0)`. Corrupt or foreign
  /// generations are skipped with a warning. Returns the generation's
  /// method-state section (EndRound's `method_state`); an empty reader
  /// when nothing was restored.
  SectionReader Resume();

  /// Rounds completed so far (restored ones included).
  int rounds() const { return rounds_; }

  /// The TrainConfig of one member: `epochs` epochs under `schedule` (null:
  /// the step decay every method but Snapshot uses), shuffled from `seed`,
  /// with inflight checkpoints in `slot` — one more than the index the
  /// member will take in the ensemble. Retries of a member (EDDE's
  /// divergence recovery) pass their `attempt`, which salts the inflight
  /// fingerprint so one attempt never resumes off another's file.
  TrainConfig MemberConfig(
      int slot, int epochs, uint64_t seed, int attempt = 0,
      std::shared_ptr<const LrSchedule> schedule = nullptr) const;

  /// TrainModel, with the graceful exit (128+signal) before it and after it
  /// when shutdown was requested: a signal during the previous round's end
  /// never starts another member, and one during training leaves the
  /// member stopped early, held only by its inflight checkpoint. Never call
  /// from a pool worker (Bagging calls TrainModel and exits after its
  /// ParallelFor).
  void TrainMember(Module* model, const Dataset& data,
                   const TrainConfig& config,
                   const TrainContext& context = TrainContext{},
                   const EpochCallback& on_epoch = nullptr) const;

  /// Ends the next round, which trained `epochs` epochs. Records the curve
  /// point — the accuracy of `probe` when given, else of the ensemble —
  /// and, on the checkpoint cadence, writes the generation with
  /// `method_state` as its method-state section. Once it is durable, the
  /// inflight files of the ensemble's members are removed.
  /// A failed write degrades (warning), it never fails the run.
  void EndRound(int epochs, const SectionWriter& method_state = {},
                Module* probe = nullptr);

 private:
  bool enabled() const { return !config_.checkpoint.dir.empty(); }
  std::string InflightPath(int slot) const;
  /// Writes generation rounds() atomically, then rotates: only the newest
  /// `keep` generations survive. Failpoints: checkpoint.round (before the
  /// write), checkpoint.commit (after commit, before rotation).
  Status WriteGeneration(const SectionWriter& method_state);

  MethodConfig config_;
  std::string method_name_;
  ModelFactory factory_;
  std::string dir_;
  uint64_t fingerprint_ = 0;
  EvalCurve curve_;
  RoundState state_;
  int rounds_ = 0;
  int epochs_ = 0;  ///< training epochs the rounds spent
  /// Curve points so far, restored ones included.
  std::vector<CurvePoint> points_;
};

/// Writes a mid-member checkpoint: module params, SGD momentum, trainer RNG
/// and the index of the next epoch to run. Atomic + CRC-framed.
Status SaveInflightCheckpoint(const std::string& path, Module* model,
                              const Sgd& optimizer, const Rng& rng,
                              int next_epoch, uint64_t fingerprint);

/// Restores a mid-member checkpoint written by SaveInflightCheckpoint.
/// NotFound when the file does not exist; Corruption when framing/CRC or
/// the fingerprint check fails (callers treat both as "start from epoch 0").
Status LoadInflightCheckpoint(const std::string& path, Module* model,
                              Sgd* optimizer, Rng* rng, int* next_epoch,
                              uint64_t fingerprint);

}  // namespace edde

#endif  // EDDE_ENSEMBLE_RUN_CHECKPOINT_H_
