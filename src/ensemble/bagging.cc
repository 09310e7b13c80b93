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
  // members already committed. Members complete in any order under
  // ParallelFor but join the ensemble in slot order, so the ensemble, its
  // curve and its generations are those of the sequential run.
  EnsembleModel ensemble;
  RoundCheckpointer rounds(config_, name(), train, factory, curve,
                           {.ensemble = &ensemble});
  rounds.Resume();
  const int restored = rounds.rounds();

  // Members finished out of slot order wait here for their turn; under
  // `rounds_mu`, with the ensemble and the round ends.
  std::vector<std::unique_ptr<Module>> finished(
      static_cast<size_t>(num_members));
  std::mutex rounds_mu;
  static Counter* const member_counter =
      MetricsRegistry::Global().GetCounter("bagging.members_trained");
  ParallelFor(restored, num_members, 1, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      if (ShutdownRequested()) continue;  // drain; the exit follows below
      TraceScope trace("bagging/member");
      member_counter->Increment();
      const MemberPlan& plan = plans[static_cast<size_t>(t)];
      std::unique_ptr<Module> model = factory(plan.factory_seed);
      TrainModel(model.get(), plan.boot,
                 rounds.MemberConfig(static_cast<int>(t) + 1,
                                     config_.epochs_per_member,
                                     plan.train_seed),
                 TrainContext{});
      // A signal mid-member leaves the half-trained model to its inflight
      // checkpoint; recording it as complete would corrupt the ensemble.
      if (ShutdownRequested()) continue;
      std::lock_guard<std::mutex> lock(rounds_mu);
      finished[static_cast<size_t>(t)] = std::move(model);
      for (int64_t next = ensemble.size();
           next < num_members && finished[static_cast<size_t>(next)];
           ++next) {
        ensemble.AddMember(std::move(finished[static_cast<size_t>(next)]),
                           1.0);
        rounds.EndRound(config_.epochs_per_member);
      }
    }
  });
  if (ShutdownRequested()) GracefulShutdownExit();
  return ensemble;
}

}  // namespace edde
