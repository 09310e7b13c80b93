#include "ensemble/bagging.h"

#include <memory>
#include <mutex>

#include "data/sampling.h"
#include "ensemble/run_checkpoint.h"
#include "utils/crash.h"
#include "utils/metrics.h"
#include "utils/threadpool.h"
#include "utils/trace.h"

namespace edde {

EnsembleModel Bagging::Train(const Dataset& train, const ModelFactory& factory,
                             const EvalCurve& curve) {
  Rng rng(config_.seed);
  const int num_members = config_.num_members;

  // Members are independent, so they train concurrently. All RNG draws
  // (bootstrap indices, factory seed, shuffle seed) happen serially up
  // front in the same order as the sequential implementation, so every
  // member sees the same seeds regardless of thread count.
  struct MemberPlan {
    Dataset boot;
    uint64_t factory_seed = 0;
    uint64_t train_seed = 0;
  };
  std::vector<MemberPlan> plans(static_cast<size_t>(num_members));
  for (int t = 0; t < num_members; ++t) {
    const auto indices = BootstrapIndices(train.size(), train.size(), &rng);
    plans[static_cast<size_t>(t)].boot =
        train.Subset(indices, train.name() + "/bootstrap");
    plans[static_cast<size_t>(t)].factory_seed = rng.NextU64();
    plans[static_cast<size_t>(t)].train_seed = rng.NextU64();
  }

  // Crash consistency (DESIGN.md §11): every seed above is re-derived
  // deterministically from config_.seed, so a resumed run only needs the
  // members of the slots that already finished. Completion order under
  // ParallelFor is nondeterministic, so generations are keyed by slot.
  std::vector<std::unique_ptr<Module>> models(
      static_cast<size_t>(num_members));
  RoundCheckpointer rounds(config_, name(), train.size(), factory, curve,
                           {.slot_members = &models});
  rounds.Resume();

  // Serializes round ends from concurrent workers; a slot of `models` is
  // only written by the worker that trains it, under this mutex.
  std::mutex rounds_mu;
  static Counter* const member_counter =
      MetricsRegistry::Global().GetCounter("bagging.members_trained");
  ParallelFor(0, num_members, 1, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const size_t slot = static_cast<size_t>(t);
      if (models[slot] != nullptr) continue;  // restored from checkpoint
      if (ShutdownRequested()) continue;  // drain; the exit follows below
      TraceScope trace("bagging/member");
      member_counter->Increment();
      const MemberPlan& plan = plans[slot];
      std::unique_ptr<Module> model = factory(plan.factory_seed);
      TrainModel(model.get(), plan.boot,
                 rounds.MemberConfig(static_cast<int>(t),
                                     config_.epochs_per_member,
                                     plan.train_seed),
                 TrainContext{});
      // A signal mid-member leaves the half-trained model to its inflight
      // checkpoint; recording it as complete would corrupt the ensemble.
      if (ShutdownRequested()) continue;
      std::lock_guard<std::mutex> lock(rounds_mu);
      models[slot] = std::move(model);
      rounds.EndRound(config_.epochs_per_member);
    }
  });
  if (ShutdownRequested()) GracefulShutdownExit();

  EnsembleModel ensemble;
  int cumulative_epochs = 0;
  for (int t = 0; t < num_members; ++t) {
    ensemble.AddMember(std::move(models[static_cast<size_t>(t)]), 1.0);
    cumulative_epochs += config_.epochs_per_member;
    if (curve.enabled()) {
      curve.points->emplace_back(cumulative_epochs,
                                 ensemble.EvaluateAccuracy(*curve.eval));
    }
  }
  return ensemble;
}

}  // namespace edde
