#include "ensemble/adaboost_nc.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "data/sampling.h"
#include "ensemble/run_checkpoint.h"
#include "metrics/metrics.h"
#include "nn/checkpoint.h"
#include "tensor/ops.h"
#include "utils/logging.h"

namespace edde {

EnsembleModel AdaBoostNC::Train(const Dataset& train,
                                const ModelFactory& factory,
                                const EvalCurve& curve) {
  Rng rng(config_.seed);
  const int64_t n = train.size();
  std::vector<double> weights(static_cast<size_t>(n),
                              1.0 / static_cast<double>(n));
  EnsembleModel ensemble;
  RoundCheckpointer rounds(
      config_, name(), train, factory, curve,
      {.ensemble = &ensemble, .rng = &rng, .weights = &weights});
  rounds.Resume();
  // Per-member hard predictions on the training set, kept for the ambiguity
  // term. Recomputed for restored members, which is exact because
  // prediction is deterministic.
  std::vector<std::vector<int>> member_train_preds;
  for (int64_t i = 0; i < ensemble.size(); ++i) {
    member_train_preds.push_back(PredictLabels(ensemble.member(i), train));
  }

  for (int t = rounds.rounds(); t < config_.num_members; ++t) {
    const auto indices = WeightedResampleIndices(weights, n, &rng);
    const Dataset resampled = train.Subset(indices, train.name() + "/nc");

    std::unique_ptr<Module> model = factory(rng.NextU64());
    if (transfer_all_ && ensemble.size() > 0) {
      // Table VI ablation: warm-start from the previous member.
      EDDE_CHECK(CopyParameters(ensemble.member(ensemble.size() - 1),
                                model.get())
                     .ok());
    }
    rounds.TrainMember(
        model.get(), resampled,
        rounds.MemberConfig(t + 1, config_.epochs_per_member, rng.NextU64()));

    member_train_preds.push_back(PredictLabels(model.get(), train));
    const std::vector<int>& preds = member_train_preds.back();

    // Provisional ensemble vote including the new member (equal weights for
    // the ambiguity computation; the final combination uses the alphas).
    std::vector<int> vote(static_cast<size_t>(n));
    {
      const int k = train.num_classes();
      std::vector<int> counts(static_cast<size_t>(k));
      for (int64_t i = 0; i < n; ++i) {
        std::fill(counts.begin(), counts.end(), 0);
        for (const auto& mp : member_train_preds) {
          ++counts[static_cast<size_t>(mp[static_cast<size_t>(i)])];
        }
        int best = 0;
        for (int c = 1; c < k; ++c) {
          if (counts[static_cast<size_t>(c)] >
              counts[static_cast<size_t>(best)]) {
            best = c;
          }
        }
        vote[static_cast<size_t>(i)] = best;
      }
    }

    // Ambiguity and penalty per sample.
    const double t_count = static_cast<double>(member_train_preds.size());
    std::vector<double> penalty(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      int disagreements = 0;
      for (const auto& mp : member_train_preds) {
        if (mp[static_cast<size_t>(i)] != vote[static_cast<size_t>(i)]) {
          ++disagreements;
        }
      }
      const double amb = static_cast<double>(disagreements) / t_count;
      penalty[static_cast<size_t>(i)] =
          std::pow(std::max(1.0 - amb, 1e-6), penalty_strength_);
    }

    // Member weight alpha_t from penalty-weighted correct/incorrect mass.
    double correct_mass = 0.0, wrong_mass = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      const double mass =
          weights[static_cast<size_t>(i)] * penalty[static_cast<size_t>(i)];
      if (preds[static_cast<size_t>(i)] ==
          train.labels()[static_cast<size_t>(i)]) {
        correct_mass += mass;
      } else {
        wrong_mass += mass;
      }
    }
    double alpha =
        0.5 * std::log(std::max(correct_mass, 1e-12) /
                       std::max(wrong_mass, 1e-12));
    alpha = std::clamp(alpha, 1e-3, 4.0);

    // Weight update: error term * ambiguity penalty.
    for (int64_t i = 0; i < n; ++i) {
      double w = weights[static_cast<size_t>(i)];
      w *= penalty[static_cast<size_t>(i)];
      if (preds[static_cast<size_t>(i)] !=
          train.labels()[static_cast<size_t>(i)]) {
        w *= std::exp(alpha);
      }
      weights[static_cast<size_t>(i)] = w;
    }
    NormalizeWeights(&weights);

    ensemble.AddMember(std::move(model), alpha);
    rounds.EndRound(config_.epochs_per_member);
  }
  return ensemble;
}

}  // namespace edde
