#ifndef EDDE_METRICS_DIVERSITY_H_
#define EDDE_METRICS_DIVERSITY_H_

#include <vector>

#include "tensor/tensor.h"

namespace edde {

/// The paper's diversity measure between two models' soft targets (Eq. 2):
///   Div = (√2/2) · (1/N) · Σ_i ‖p_j(x_i) − p_k(x_i)‖₂ ∈ [0, 1].
/// `probs_j` and `probs_k` are (N, K) softmax-output matrices over the same
/// samples.
double PairwiseDiversity(const Tensor& probs_j, const Tensor& probs_k);

/// Similarity (Eq. 3): Sim = 1 − Div.
double PairwiseSimilarity(const Tensor& probs_j, const Tensor& probs_k);

/// Mean pairwise diversity of an ensemble (Eq. 7):
///   Div_H = 2/(T(T−1)) · Σ_{j<k} Div(h_j, h_k).
/// Requires at least two members.
double EnsembleDiversity(const std::vector<Tensor>& member_probs);

/// Full T×T similarity matrix (diagonal = 1), the quantity plotted in the
/// paper's Fig. 8 heatmaps.
std::vector<std::vector<double>> PairwiseSimilarityMatrix(
    const std::vector<Tensor>& member_probs);

// ---------------------------------------------------------------------------
// Classical hard-prediction diversity (Tang, Suganthan & Yao, 2006 — the
// survey the paper cites when motivating its own soft-target measure).
// Unlike Eq. 2 it carries no usable gradient, which is exactly the paper's
// criticism.
// ---------------------------------------------------------------------------

/// Pairwise disagreement: fraction of samples where the two classifiers
/// predict different labels. In [0, 1]; higher = more diverse.
double DisagreementMeasure(const std::vector<int>& preds_a,
                           const std::vector<int>& preds_b);

/// Mean pairwise disagreement over an ensemble's hard predictions.
double EnsembleDisagreement(const std::vector<std::vector<int>>& member_preds);

}  // namespace edde

#endif  // EDDE_METRICS_DIVERSITY_H_
