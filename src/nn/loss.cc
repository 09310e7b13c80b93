#include "nn/loss.h"

#include <cmath>
#include <vector>

#include "tensor/ops.h"
#include "utils/logging.h"

namespace edde {

LossResult SoftmaxCrossEntropyLoss(const Tensor& logits,
                                   const std::vector<int>& labels,
                                   const std::vector<float>& sample_weights,
                                   const Tensor& reference_probs,
                                   const LossConfig& config) {
  EDDE_CHECK_EQ(logits.shape().rank(), 2);
  const int64_t n = logits.shape().dim(0);
  const int64_t k = logits.shape().dim(1);
  EDDE_CHECK_EQ(static_cast<int64_t>(labels.size()), n);
  const bool weighted = !sample_weights.empty();
  if (weighted) {
    EDDE_CHECK_EQ(static_cast<int64_t>(sample_weights.size()), n);
  }
  const bool use_ref =
      config.diversity_gamma != 0.0f || config.distill_weight != 0.0f;
  if (use_ref) {
    EDDE_CHECK(!reference_probs.empty())
        << "diversity/distillation term requires reference soft targets";
    EDDE_CHECK(reference_probs.shape() == logits.shape());
  }

  LossResult result;
  result.probs = Tensor(logits.shape());
  result.grad_logits = Tensor(logits.shape());

  constexpr float kEps = 1e-8f;
  const float inv_n = 1.0f / static_cast<float>(n);

  // One fused pass per sample: softmax (via SoftmaxRow, so probs stays
  // bit-identical to Softmax(logits)), loss terms and the finished
  // (already 1/n-scaled) gradient row. The loss sums in double, row by row.
  double total_loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const float w = weighted ? sample_weights[static_cast<size_t>(i)] : 1.0f;
    float* p = result.probs.data() + i * k;
    float* g = result.grad_logits.data() + i * k;
    const int y = labels[static_cast<size_t>(i)];
    EDDE_CHECK_GE(y, 0);
    EDDE_CHECK_LT(y, static_cast<int>(k));

    SoftmaxRow(logits.data() + i * k, k, p);

    // Cross-entropy term: -log p_y ; d/dz = p - onehot(y).
    total_loss += -w * std::log(std::max(p[y], kEps));
#pragma omp simd
    for (int64_t c = 0; c < k; ++c) g[c] = w * p[c];
    g[y] -= w;

    if (use_ref) {
      const float* q = reference_probs.data() + i * k;

      if (config.diversity_gamma != 0.0f) {
        // Diversity term (Eq. 10): -γ‖p − q‖₂.
        // With u_c = (p_c − q_c)/‖p − q‖₂, the logit gradient of ‖p − q‖₂
        // through the softmax Jacobian is p ⊙ (u − (p·u)); we subtract γ
        // times it (the term is a reward, Eq. 11).
        double d2 = 0.0;
        for (int64_t c = 0; c < k; ++c) {
          const double diff = static_cast<double>(p[c]) - q[c];
          d2 += diff * diff;
        }
        const float d = static_cast<float>(std::sqrt(d2));
        total_loss += -w * config.diversity_gamma * d;
        const float inv_d = 1.0f / std::max(d, kEps);
        double pu = 0.0;
        for (int64_t c = 0; c < k; ++c) {
          pu += static_cast<double>(p[c]) * (p[c] - q[c]) * inv_d;
        }
        for (int64_t c = 0; c < k; ++c) {
          const float u = (p[c] - q[c]) * inv_d;
          g[c] -= w * config.diversity_gamma * p[c] *
                  (u - static_cast<float>(pu));
        }
      }

      if (config.distill_weight != 0.0f) {
        // Distillation: λ·CE(q, p) = -λ Σ q_c log p_c ; d/dz = λ(p − q).
        double ce = 0.0;
        for (int64_t c = 0; c < k; ++c) {
          ce += -static_cast<double>(q[c]) * std::log(std::max(p[c], kEps));
        }
        total_loss += w * config.distill_weight * ce;
        for (int64_t c = 0; c < k; ++c) {
          g[c] += w * config.distill_weight * (p[c] - q[c]);
        }
      }
    }

#pragma omp simd
    for (int64_t c = 0; c < k; ++c) g[c] *= inv_n;
  }

  result.loss = total_loss * inv_n;
  return result;
}

LossResult SoftmaxCrossEntropyLoss(const Tensor& logits,
                                   const std::vector<int>& labels) {
  return SoftmaxCrossEntropyLoss(logits, labels, {}, Tensor(), LossConfig{});
}

}  // namespace edde
