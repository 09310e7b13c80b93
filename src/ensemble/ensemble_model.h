#ifndef EDDE_ENSEMBLE_ENSEMBLE_MODEL_H_
#define EDDE_ENSEMBLE_ENSEMBLE_MODEL_H_

#include <memory>
#include <vector>

#include "data/dataset.h"
#include "nn/module.h"
#include "utils/status.h"

namespace edde {

/// A trained ensemble: base models h_t plus their combination weights α_t.
///
/// Prediction follows the paper's Eq. 16, H_T(x) = Σ_t α_t · h_t(x) over
/// softmax outputs, normalized by Σ α_t so the result is a distribution.
class EnsembleModel {
 public:
  EnsembleModel() = default;
  EnsembleModel(EnsembleModel&&) = default;
  EnsembleModel& operator=(EnsembleModel&&) = default;

  /// Adds a trained member with combination weight `alpha` (> 0) and packs
  /// it for eval (Module::PackForEval): the member is final, and nothing
  /// may train it or change its weights afterwards.
  void AddMember(std::unique_ptr<Module> model, double alpha);

  int64_t size() const { return static_cast<int64_t>(members_.size()); }
  Module* member(int64_t i) const { return members_[static_cast<size_t>(i)].get(); }
  double alpha(int64_t i) const { return alphas_[static_cast<size_t>(i)]; }
  const std::vector<double>& alphas() const { return alphas_; }

  /// Sum of the member weights (the Eq. 16 normalizer).
  double AlphaSum() const;

  /// Whether the ensemble can produce a well-defined prediction: at least
  /// one member, every α finite and positive, and Σα large enough that the
  /// α/Σα normalization cannot overflow. Returns FailedPrecondition with a
  /// diagnostic otherwise. Serving and other fallible callers check this
  /// instead of tripping the EDDE_CHECK inside PredictProbs.
  Status CheckPredictable() const;

  /// Member indices sorted by α descending (ties keep member order). The
  /// evaluation order of the serving cascade: heaviest voters first.
  std::vector<int64_t> AlphaDescendingOrder() const;

  /// α-weighted average of the members' softmax outputs on `data` (Eq. 16).
  Tensor PredictProbs(const Dataset& data, int64_t batch_size = 128) const;

  /// Eval-mode softmax probs of member `t` on a raw feature batch whose
  /// leading axis indexes rows. The serving path feeds coalesced request
  /// batches through this, one member at a time, in cascade order.
  Tensor MemberProbsOnBatch(int64_t t, const Tensor& batch) const;

  /// Argmax of PredictProbs.
  std::vector<int> PredictLabels(const Dataset& data,
                                 int64_t batch_size = 128) const;

  /// Ensemble accuracy on `data`.
  double EvaluateAccuracy(const Dataset& data, int64_t batch_size = 128) const;

  /// Each member's own (N, K) soft targets on `data` — inputs to the
  /// diversity measures and to the Fig. 8 similarity heatmaps.
  std::vector<Tensor> MemberProbs(const Dataset& data,
                                  int64_t batch_size = 128) const;

  /// Mean accuracy of the individual members ("Average accuracy" in the
  /// paper's Table IV/VI).
  double AverageMemberAccuracy(const Dataset& data,
                               int64_t batch_size = 128) const;

 private:
  std::vector<std::unique_ptr<Module>> members_;
  std::vector<double> alphas_;
};

/// Early-exit state of one α-ordered ensemble prediction (the serving
/// cascade, DESIGN.md §12).
///
/// Members are consumed in descending-α order. After member m the
/// accumulated per-class score is S_c = Σ_{consumed t} α_t p_t(x)_c and the
/// outstanding mass is R = Σ_{remaining t} α_t. Because every remaining
/// member contributes a distribution (rows sum to 1) scaled by its α, the
/// final Eq. 16 score of class c lies in [S_c, S_c + R]. A row is therefore
/// *decided* once its leading margin exceeds R — no completion of the
/// cascade can overturn the argmax — and the whole batch exits early once
/// every row is decided.
///
/// Exactness: scores accumulate in float64 and the margin test demands
/// `margin > R + slack`, where slack bounds the float32 rounding of the
/// full-ensemble reference path (PredictProbs accumulates float32 in member
/// order). An early-exited argmax thus always equals the full-ensemble
/// argmax bit-for-bit. Rows that never clear the margin fall through to
/// cascade depth T, where the float64 ordering is NOT authoritative: a row
/// whose top classes sit within a few float32 ulps can legitimately argmax
/// differently under float64 than under the reference's float32 rounding.
/// Such rows are instead decided by replaying the reference arithmetic
/// exactly — float32 `combined[c] += (α_t/Σα)·p_t[c]` in member order over
/// the per-member outputs retained for still-open rows — so cascade on/off
/// changes latency only, never a label, even on adversarially tied inputs.
class PartialPredictAccumulator {
 public:
  /// `alphas` are the member weights in member order (must pass the same
  /// validation as EnsembleModel::CheckPredictable); `rows` x `k` is the
  /// output geometry of the batch being predicted.
  PartialPredictAccumulator(std::vector<double> alphas, int64_t rows,
                            int64_t k);

  /// Member indices in consumption (descending-α) order.
  const std::vector<int64_t>& order() const { return order_; }

  int64_t num_members() const { return static_cast<int64_t>(alphas_.size()); }
  int64_t members_consumed() const { return consumed_; }
  int64_t rows() const { return rows_; }

  /// Rows still undecided, ascending. This is the contract for partial
  /// feeds: the caller gathers exactly these rows (in this order) into the
  /// next member's input batch, so decided rows stop costing forward
  /// passes — the cascade's row-level compute saving.
  const std::vector<int64_t>& UndecidedRows() const { return open_rows_; }

  /// Feeds the next member's softmax output — the member at
  /// order()[members_consumed()]. Accepts either the full (rows, k) batch
  /// (the cascade-off / reference path — every row's score advances) or a
  /// (|UndecidedRows()|, k) partial batch whose rows correspond to
  /// UndecidedRows() as of this call. Returns true once every row is
  /// decided (the early-exit signal; callers stop evaluating members).
  bool Accumulate(const Tensor& member_probs);

  /// Σ over consumed members of the rows each one was evaluated on — the
  /// row×member compute actually spent (full feeds count every row).
  int64_t rows_evaluated() const { return row_evals_; }

  bool all_decided() const { return undecided_ == 0; }
  bool row_decided(int64_t row) const {
    return depth_[static_cast<size_t>(row)] > 0;
  }
  /// Members consumed when `row` was decided (0 when still undecided) —
  /// the per-row cascade depth.
  int64_t row_depth(int64_t row) const {
    return depth_[static_cast<size_t>(row)];
  }

  /// Decided labels. Requires all_decided() (guaranteed after all members
  /// were accumulated).
  std::vector<int> Labels() const;

  /// Accumulated weighted scores, each row normalized by the α mass that
  /// actually reached it — the serving response's probability payload.
  /// After full feeds of every member this is Eq. 16 up to
  /// float64-vs-float32 rounding; under partial feeds an early-decided
  /// row's distribution reflects only the members it consumed (its argmax
  /// is still exact; see above).
  Tensor Probs() const;

 private:
  void DecideRows();

  std::vector<double> alphas_;
  std::vector<int64_t> order_;
  int64_t rows_ = 0;
  int64_t k_ = 0;
  double alpha_sum_ = 0.0;         // Σα — the reference path's normalizer
  std::vector<double> sum_;        // rows x k accumulated α·p
  std::vector<float> hist_;        // rows x T x k member outputs, member-
                                   // indexed; feeds the depth-T float32
                                   // replay (see class comment)
  std::vector<double> row_alpha_;  // α mass accumulated into each row
  std::vector<int> label_;         // decided label per row (-1 = undecided)
  std::vector<int64_t> depth_;     // members consumed at decision (0 = open)
  std::vector<int64_t> open_rows_; // undecided rows, ascending
  int64_t consumed_ = 0;
  int64_t undecided_ = 0;
  int64_t row_evals_ = 0;
  double remaining_alpha_ = 0.0;
  double slack_ = 0.0;
};

}  // namespace edde

#endif  // EDDE_ENSEMBLE_ENSEMBLE_MODEL_H_
