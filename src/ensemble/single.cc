#include "ensemble/single.h"

#include <memory>

#include "ensemble/run_checkpoint.h"

namespace edde {

EnsembleModel SingleModel::Train(const Dataset& train,
                                 const ModelFactory& factory,
                                 const EvalCurve& curve) {
  EnsembleModel ensemble;
  RoundCheckpointer rounds(config_, name(), train, factory, curve,
                           {.ensemble = &ensemble});
  rounds.Resume();
  if (ensemble.size() > 0) return ensemble;  // finished before a restart

  // One member trains for the whole budget. Its training counts as
  // num_members rounds of epochs_per_member epochs, so its curve points and
  // generations fall where the ensemble methods' do; the member joins the
  // ensemble (and a generation) in the last one — not before, since a
  // generation holding it would remove the inflight file it still trains
  // from. Until then the curve probes the member itself.
  Rng rng(config_.seed);
  std::unique_ptr<Module> model = factory(rng.NextU64());
  Module* raw = model.get();
  const int total_epochs = config_.num_members * config_.epochs_per_member;
  const TrainConfig tc = rounds.MemberConfig(1, total_epochs, rng.NextU64());
  auto end_round = [&](const EpochStats& stats) {
    const int done = stats.epoch + 1;
    // A resumed member replays epochs whose round a generation holds.
    if (done % config_.epochs_per_member != 0 ||
        done <= rounds.rounds() * config_.epochs_per_member) {
      return;
    }
    if (done == total_epochs) ensemble.AddMember(std::move(model), 1.0);
    rounds.EndRound(config_.epochs_per_member, {}, raw);
  };
  rounds.TrainMember(raw, train, tc, TrainContext{}, end_round);
  return ensemble;
}

}  // namespace edde
