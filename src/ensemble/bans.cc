#include "ensemble/bans.h"

#include <memory>

#include "ensemble/run_checkpoint.h"
#include "metrics/metrics.h"
#include "utils/metrics.h"
#include "utils/trace.h"

namespace edde {

EnsembleModel Bans::Train(const Dataset& train, const ModelFactory& factory,
                          const EvalCurve& curve) {
  Rng rng(config_.seed);
  EnsembleModel ensemble;
  RoundCheckpointer rounds(config_, name(), train, factory, curve,
                           {.ensemble = &ensemble, .rng = &rng});
  rounds.Resume();
  // The previous generation's soft targets on `train`; recomputed for a
  // restored teacher, which is exact because PredictProbs is deterministic.
  Tensor teacher_probs;
  if (ensemble.size() > 0) {
    teacher_probs = PredictProbs(ensemble.member(ensemble.size() - 1), train);
  }

  static Counter* const member_counter =
      MetricsRegistry::Global().GetCounter("bans.members_trained");
  for (int t = rounds.rounds(); t < config_.num_members; ++t) {
    TraceScope trace("bans/member");
    member_counter->Increment();
    std::unique_ptr<Module> model = factory(rng.NextU64());
    const TrainConfig tc =
        rounds.MemberConfig(t + 1, config_.epochs_per_member, rng.NextU64());
    TrainContext ctx;
    if (t > 0) {
      ctx.reference_probs = &teacher_probs;
      ctx.loss.distill_weight = distill_weight_;
    }
    rounds.TrainMember(model.get(), train, tc, ctx);

    teacher_probs = PredictProbs(model.get(), train);
    ensemble.AddMember(std::move(model), 1.0);
    rounds.EndRound(config_.epochs_per_member);
  }
  return ensemble;
}

}  // namespace edde
