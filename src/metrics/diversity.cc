#include "metrics/diversity.h"

#include <cmath>

#include "tensor/ops.h"
#include "utils/logging.h"

namespace edde {

namespace {
constexpr double kHalfSqrt2 = 0.7071067811865476;  // √2 / 2
}  // namespace

double PairwiseDiversity(const Tensor& probs_j, const Tensor& probs_k) {
  EDDE_CHECK(probs_j.shape() == probs_k.shape());
  EDDE_CHECK_EQ(probs_j.shape().rank(), 2);
  const std::vector<float> dists = RowL2Distance(probs_j, probs_k);
  double acc = 0.0;
  for (float d : dists) acc += d;
  return kHalfSqrt2 * acc / static_cast<double>(dists.size());
}

double PairwiseSimilarity(const Tensor& probs_j, const Tensor& probs_k) {
  return 1.0 - PairwiseDiversity(probs_j, probs_k);
}

double EnsembleDiversity(const std::vector<Tensor>& member_probs) {
  const size_t t = member_probs.size();
  EDDE_CHECK_GE(t, 2u) << "ensemble diversity needs >= 2 members";
  double acc = 0.0;
  for (size_t j = 0; j < t; ++j) {
    for (size_t k = j + 1; k < t; ++k) {
      acc += PairwiseDiversity(member_probs[j], member_probs[k]);
    }
  }
  return 2.0 * acc / (static_cast<double>(t) * static_cast<double>(t - 1));
}

std::vector<std::vector<double>> PairwiseSimilarityMatrix(
    const std::vector<Tensor>& member_probs) {
  const size_t t = member_probs.size();
  std::vector<std::vector<double>> sim(t, std::vector<double>(t, 1.0));
  for (size_t j = 0; j < t; ++j) {
    for (size_t k = j + 1; k < t; ++k) {
      const double s = PairwiseSimilarity(member_probs[j], member_probs[k]);
      sim[j][k] = s;
      sim[k][j] = s;
    }
  }
  return sim;
}

double DisagreementMeasure(const std::vector<int>& preds_a,
                           const std::vector<int>& preds_b) {
  EDDE_CHECK_EQ(preds_a.size(), preds_b.size());
  EDDE_CHECK(!preds_a.empty());
  int64_t differ = 0;
  for (size_t i = 0; i < preds_a.size(); ++i) {
    if (preds_a[i] != preds_b[i]) ++differ;
  }
  return static_cast<double>(differ) / static_cast<double>(preds_a.size());
}

double EnsembleDisagreement(
    const std::vector<std::vector<int>>& member_preds) {
  const size_t t = member_preds.size();
  EDDE_CHECK_GE(t, 2u);
  double acc = 0.0;
  for (size_t j = 0; j < t; ++j) {
    for (size_t k = j + 1; k < t; ++k) {
      acc += DisagreementMeasure(member_preds[j], member_preds[k]);
    }
  }
  return 2.0 * acc / (static_cast<double>(t) * static_cast<double>(t - 1));
}

}  // namespace edde
