#include "ensemble/ensemble_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "metrics/metrics.h"
#include "tensor/ops.h"
#include "utils/logging.h"
#include "utils/threadpool.h"

namespace edde {

namespace {

/// Σα below this would push α/Σα toward overflow — treat the ensemble as
/// degenerate ("all weights clamped away") rather than emit garbage logits.
constexpr double kMinAlphaSum = 1e-30;

/// Float32-rounding guard for the cascade margin test (see the class
/// comment in ensemble_model.h): the full-ensemble reference accumulates
/// float32 in member order, so each of the T adds can perturb a class score
/// by ~ε·Σα. The margin must clear the outstanding mass by more than the
/// worst-case divergence between that float32 path and the accumulator's
/// float64 path before a row may exit early.
double CascadeSlack(const std::vector<double>& alphas, double alpha_sum) {
  const double per_add = 4.0 * std::numeric_limits<float>::epsilon();
  return (static_cast<double>(alphas.size()) + 2.0) * per_add * alpha_sum;
}

}  // namespace

void EnsembleModel::AddMember(std::unique_ptr<Module> model, double alpha) {
  EDDE_CHECK(model != nullptr);
  EDDE_CHECK_GT(alpha, 0.0) << "member weight must be positive";
  model->PackForEval();
  members_.push_back(std::move(model));
  alphas_.push_back(alpha);
}

double EnsembleModel::AlphaSum() const {
  double alpha_sum = 0.0;
  for (double a : alphas_) alpha_sum += a;
  return alpha_sum;
}

Status EnsembleModel::CheckPredictable() const {
  if (members_.empty()) {
    return Status::FailedPrecondition(
        "ensemble has no members — nothing to predict with");
  }
  for (size_t t = 0; t < alphas_.size(); ++t) {
    if (!std::isfinite(alphas_[t]) || alphas_[t] <= 0.0) {
      return Status::FailedPrecondition(
          "member " + std::to_string(t) + " has degenerate weight alpha=" +
          std::to_string(alphas_[t]));
    }
  }
  const double alpha_sum = AlphaSum();
  if (!std::isfinite(alpha_sum) || alpha_sum < kMinAlphaSum) {
    return Status::FailedPrecondition(
        "member weights sum to " + std::to_string(alpha_sum) +
        " — all alphas clamped/underflowed, normalization would overflow");
  }
  return Status::OK();
}

std::vector<int64_t> EnsembleModel::AlphaDescendingOrder() const {
  std::vector<int64_t> order(alphas_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return alphas_[static_cast<size_t>(a)] > alphas_[static_cast<size_t>(b)];
  });
  return order;
}

Tensor EnsembleModel::PredictProbs(const Dataset& data,
                                   int64_t batch_size) const {
  return Combine(MemberProbs(data, batch_size));
}

Tensor EnsembleModel::Combine(const std::vector<Tensor>& member_probs) const {
  EDDE_CHECK(!member_probs.empty()) << "empty ensemble";
  EDDE_CHECK_EQ(member_probs.size(), alphas_.size())
      << "one soft-target tensor per member";
  // Serial in member order, so the float32 reduction is deterministic.
  const double alpha_sum = AlphaSum();
  Tensor combined(member_probs[0].shape(), 0.0f);
  for (size_t t = 0; t < member_probs.size(); ++t) {
    Axpy(static_cast<float>(alphas_[t] / alpha_sum), member_probs[t],
         &combined);
  }
  return combined;
}

Tensor EnsembleModel::MemberProbsOnBatch(int64_t t, const Tensor& batch) const {
  EDDE_CHECK_GE(t, 0);
  EDDE_CHECK_LT(t, size());
  Tensor logits = members_[static_cast<size_t>(t)]->Forward(batch, nullptr);
  return Softmax(logits);
}

std::vector<int> EnsembleModel::PredictLabels(const Dataset& data,
                                              int64_t batch_size) const {
  return ArgmaxRows(PredictProbs(data, batch_size));
}

double EnsembleModel::EvaluateAccuracy(const Dataset& data,
                                       int64_t batch_size) const {
  return Accuracy(PredictLabels(data, batch_size), data.labels());
}

std::vector<Tensor> EnsembleModel::MemberProbs(const Dataset& data,
                                               int64_t batch_size) const {
  const int64_t num_members = size();
  std::vector<Tensor> out(static_cast<size_t>(num_members));
  ParallelFor(0, num_members, [&](int64_t t) {
    out[static_cast<size_t>(t)] = edde::PredictProbs(
        members_[static_cast<size_t>(t)].get(), data, batch_size);
  });
  return out;
}

// ---------------------------------------------------------------------------
// PartialPredictAccumulator
// ---------------------------------------------------------------------------

PartialPredictAccumulator::PartialPredictAccumulator(
    std::vector<double> alphas, int64_t rows, int64_t k)
    : alphas_(std::move(alphas)), rows_(rows), k_(k) {
  EDDE_CHECK(!alphas_.empty()) << "cascade over an empty ensemble";
  EDDE_CHECK_GT(rows_, 0);
  EDDE_CHECK_GT(k_, 0);
  order_.resize(alphas_.size());
  std::iota(order_.begin(), order_.end(), 0);
  std::stable_sort(order_.begin(), order_.end(), [&](int64_t a, int64_t b) {
    return alphas_[static_cast<size_t>(a)] > alphas_[static_cast<size_t>(b)];
  });
  sum_.assign(static_cast<size_t>(rows_ * k_), 0.0);
  row_alpha_.assign(static_cast<size_t>(rows_), 0.0);
  label_.assign(static_cast<size_t>(rows_), -1);
  depth_.assign(static_cast<size_t>(rows_), 0);
  open_rows_.resize(static_cast<size_t>(rows_));
  std::iota(open_rows_.begin(), open_rows_.end(), 0);
  undecided_ = rows_;
  for (double a : alphas_) {
    EDDE_CHECK(std::isfinite(a) && a > 0.0) << "degenerate member weight";
    remaining_alpha_ += a;
  }
  alpha_sum_ = remaining_alpha_;
  slack_ = CascadeSlack(alphas_, remaining_alpha_);
  hist_.assign(static_cast<size_t>(rows_ * num_members() * k_), 0.0f);
}

bool PartialPredictAccumulator::Accumulate(const Tensor& member_probs) {
  EDDE_CHECK_LT(consumed_, num_members()) << "all members already consumed";
  EDDE_CHECK_EQ(member_probs.shape().rank(), 2);
  EDDE_CHECK_EQ(member_probs.shape().dim(1), k_);
  const int64_t fed = member_probs.shape().dim(0);
  const int64_t open = static_cast<int64_t>(open_rows_.size());
  // Full feed advances every row (the reference / cascade-off path); a
  // partial feed carries exactly the rows UndecidedRows() listed when the
  // caller gathered the member's input batch.
  const bool full = fed == rows_;
  EDDE_CHECK(full || fed == open)
      << "member batch carries " << fed << " rows; expected " << rows_
      << " (full) or " << open << " (undecided)";
  const int64_t member = order_[static_cast<size_t>(consumed_)];
  const double alpha = alphas_[static_cast<size_t>(member)];
  const int64_t T = num_members();
  const float* p = member_probs.data();
  if (full) {
    for (int64_t i = 0; i < rows_ * k_; ++i) {
      sum_[static_cast<size_t>(i)] += alpha * static_cast<double>(p[i]);
    }
    for (int64_t r = 0; r < rows_; ++r) {
      row_alpha_[static_cast<size_t>(r)] += alpha;
      std::copy(p + r * k_, p + (r + 1) * k_,
                hist_.data() + (r * T + member) * k_);
    }
  } else {
    for (int64_t i = 0; i < fed; ++i) {
      const int64_t r = open_rows_[static_cast<size_t>(i)];
      double* dst = sum_.data() + r * k_;
      const float* src = p + i * k_;
      for (int64_t c = 0; c < k_; ++c) {
        dst[c] += alpha * static_cast<double>(src[c]);
      }
      row_alpha_[static_cast<size_t>(r)] += alpha;
      std::copy(src, src + k_, hist_.data() + (r * T + member) * k_);
    }
  }
  row_evals_ += fed;
  ++consumed_;
  remaining_alpha_ -= alpha;
  if (remaining_alpha_ < 0.0) remaining_alpha_ = 0.0;
  DecideRows();
  return all_decided();
}

void PartialPredictAccumulator::DecideRows() {
  const bool final_member = consumed_ == num_members();
  const int64_t T = num_members();
  std::vector<float> combined(static_cast<size_t>(k_));
  std::vector<int64_t> still_open;
  still_open.reserve(open_rows_.size());
  for (const int64_t r : open_rows_) {
    const double* row = sum_.data() + r * k_;
    // First-index-wins argmax, matching ArgmaxRows' tie-breaking.
    int best = 0;
    double best_v = row[0];
    double second_v = -std::numeric_limits<double>::infinity();
    for (int64_t c = 1; c < k_; ++c) {
      if (row[c] > best_v) {
        second_v = best_v;
        best_v = row[c];
        best = static_cast<int>(c);
      } else if (row[c] > second_v) {
        second_v = row[c];
      }
    }
    if (best_v - second_v > remaining_alpha_ + slack_) {
      label_[static_cast<size_t>(r)] = best;
      depth_[static_cast<size_t>(r)] = consumed_;
      --undecided_;
    } else if (final_member) {
      // Never cleared the margin: the top classes may sit within float32
      // rounding of each other, where the float64 ordering above can
      // disagree with the reference path. Replay PredictProbs' arithmetic
      // exactly — float32 accumulation of α_t/Σα in MEMBER order (not
      // cascade order; float addition is order-sensitive) over the member
      // outputs retained in hist_.
      std::fill(combined.begin(), combined.end(), 0.0f);
      for (int64_t t = 0; t < T; ++t) {
        const float a =
            static_cast<float>(alphas_[static_cast<size_t>(t)] / alpha_sum_);
        const float* h = hist_.data() + (r * T + t) * k_;
        for (int64_t c = 0; c < k_; ++c) {
          combined[static_cast<size_t>(c)] += a * h[c];
        }
      }
      int ref_best = 0;
      for (int64_t c = 1; c < k_; ++c) {
        if (combined[static_cast<size_t>(c)] >
            combined[static_cast<size_t>(ref_best)]) {
          ref_best = static_cast<int>(c);
        }
      }
      label_[static_cast<size_t>(r)] = ref_best;
      depth_[static_cast<size_t>(r)] = consumed_;
      --undecided_;
    } else {
      still_open.push_back(r);
    }
  }
  open_rows_.swap(still_open);
}

std::vector<int> PartialPredictAccumulator::Labels() const {
  EDDE_CHECK(all_decided()) << "cascade still has undecided rows";
  return label_;
}

Tensor PartialPredictAccumulator::Probs() const {
  EDDE_CHECK_GT(consumed_, 0) << "no members accumulated";
  Tensor out(Shape{rows_, k_});
  float* o = out.data();
  for (int64_t r = 0; r < rows_; ++r) {
    const double inv = 1.0 / row_alpha_[static_cast<size_t>(r)];
    const double* src = sum_.data() + r * k_;
    float* dst = o + r * k_;
    for (int64_t c = 0; c < k_; ++c) {
      dst[c] = static_cast<float>(src[c] * inv);
    }
  }
  return out;
}

}  // namespace edde
