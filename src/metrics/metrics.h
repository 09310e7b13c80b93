#ifndef EDDE_METRICS_METRICS_H_
#define EDDE_METRICS_METRICS_H_

#include <vector>

#include "data/dataset.h"
#include "nn/module.h"

namespace edde {

/// Fraction of predictions equal to labels.
double Accuracy(const std::vector<int>& predictions,
                const std::vector<int>& labels);

/// Runs `model` in eval mode over `data` in minibatches and returns the
/// (N, num_classes) softmax probabilities — the paper's "soft targets".
Tensor PredictProbs(Module* model, const Dataset& data,
                    int64_t batch_size = 128);

/// Eval-mode label predictions for `data`.
std::vector<int> PredictLabels(Module* model, const Dataset& data,
                               int64_t batch_size = 128);

/// Eval-mode accuracy of `model` on `data`.
double EvaluateAccuracy(Module* model, const Dataset& data,
                        int64_t batch_size = 128);

/// Mean of the members' own accuracies ("Average accuracy" in the paper's
/// Tables IV and VI), from each member's (N, K) soft targets — e.g. one
/// EnsembleModel::MemberProbs pass, which Combine and the diversity
/// measures read too.
double MeanMemberAccuracy(const std::vector<Tensor>& member_probs,
                          const std::vector<int>& labels);

}  // namespace edde

#endif  // EDDE_METRICS_METRICS_H_
