#include "ensemble/snapshot.h"

#include <memory>

#include "ensemble/run_checkpoint.h"
#include "nn/checkpoint.h"
#include "utils/logging.h"
#include "utils/metrics.h"
#include "utils/trace.h"

namespace edde {

EnsembleModel SnapshotEnsemble::Train(const Dataset& train,
                                      const ModelFactory& factory,
                                      const EvalCurve& curve) {
  Rng rng(config_.seed);
  const int cycles = config_.num_members;
  const int cycle_epochs = config_.epochs_per_member;
  EnsembleModel ensemble;
  RoundCheckpointer rounds(config_, name(), train, factory, curve,
                           {.ensemble = &ensemble, .rng = &rng});
  rounds.Resume();

  // The trunk carries training across cycles. Between cycles it equals the
  // newest snapshot bit for bit, so a resumed run rebuilds it from that.
  std::unique_ptr<Module> model;
  if (ensemble.size() > 0) {
    model = factory(0);
    EDDE_CHECK(CopyParameters(ensemble.member(ensemble.size() - 1),
                              model.get())
                   .ok());
  } else {
    model = factory(rng.NextU64());
  }

  static Counter* const cycle_counter =
      MetricsRegistry::Global().GetCounter("snapshot.cycles");
  for (int cycle = rounds.rounds(); cycle < cycles; ++cycle) {
    TraceScope trace("snapshot/cycle");
    cycle_counter->Increment();
    // One full cosine cycle per call: the restart happens naturally because
    // each cycle starts at epoch 0 of a fresh schedule.
    rounds.TrainMember(
        model.get(), train,
        rounds.MemberConfig(cycle + 1, cycle_epochs, rng.NextU64(),
                            /*attempt=*/0,
                            std::make_shared<CosineRestartLr>(
                                config_.sgd.learning_rate, cycle_epochs)));

    // Snapshot: deep copy of the current weights.
    std::unique_ptr<Module> snapshot = factory(rng.NextU64());
    EDDE_CHECK(CopyParameters(model.get(), snapshot.get()).ok());
    ensemble.AddMember(std::move(snapshot), 1.0);
    rounds.EndRound(cycle_epochs);
  }
  return ensemble;
}

}  // namespace edde
