#include "ensemble/adaboost_m1.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "data/sampling.h"
#include "ensemble/run_checkpoint.h"
#include "metrics/metrics.h"

namespace edde {

EnsembleModel AdaBoostM1::Train(const Dataset& train,
                                const ModelFactory& factory,
                                const EvalCurve& curve) {
  Rng rng(config_.seed);
  const int64_t n = train.size();
  const int k = train.num_classes();
  std::vector<double> weights(static_cast<size_t>(n),
                              1.0 / static_cast<double>(n));
  EnsembleModel ensemble;
  RoundCheckpointer rounds(
      config_, name(), train, factory, curve,
      {.ensemble = &ensemble, .rng = &rng, .weights = &weights});
  rounds.Resume();

  for (int t = rounds.rounds(); t < config_.num_members; ++t) {
    const auto indices = WeightedResampleIndices(weights, n, &rng);
    const Dataset resampled = train.Subset(indices, train.name() + "/boost");

    std::unique_ptr<Module> model = factory(rng.NextU64());
    rounds.TrainMember(
        model.get(), resampled,
        rounds.MemberConfig(t + 1, config_.epochs_per_member, rng.NextU64()));

    // Weighted training error on the full (unresampled) training set.
    const std::vector<int> preds = PredictLabels(model.get(), train);
    double epsilon = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      if (preds[static_cast<size_t>(i)] != train.labels()[static_cast<size_t>(i)]) {
        epsilon += weights[static_cast<size_t>(i)];
      }
    }

    const double random_error = 1.0 - 1.0 / static_cast<double>(k);
    double alpha;
    if (epsilon >= random_error || epsilon <= 0.0) {
      // Degenerate round: keep the member with a nominal weight and restart
      // from uniform sample weights.
      alpha = epsilon <= 0.0 ? 4.0 : 0.01;
      weights.assign(static_cast<size_t>(n), 1.0 / static_cast<double>(n));
    } else {
      // SAMME: alpha stays positive whenever epsilon < 1 - 1/k.
      alpha = std::log((1.0 - epsilon) / epsilon) +
              std::log(static_cast<double>(k) - 1.0);
      for (int64_t i = 0; i < n; ++i) {
        if (preds[static_cast<size_t>(i)] !=
            train.labels()[static_cast<size_t>(i)]) {
          weights[static_cast<size_t>(i)] *= std::exp(alpha);
        }
      }
      NormalizeWeights(&weights);
    }

    ensemble.AddMember(std::move(model), std::max(alpha, 1e-3));
    rounds.EndRound(config_.epochs_per_member);
  }
  return ensemble;
}

}  // namespace edde
