#ifndef EDDE_CORE_EDDE_H_
#define EDDE_CORE_EDDE_H_

#include <string>
#include <vector>

#include "core/knowledge_transfer.h"
#include "ensemble/method.h"

namespace edde {

/// Clamp bounds for the member weight α_t (Eq. 15): the log-ratio is kept
/// strictly positive and bounded so one member can neither be silenced nor
/// dominate the vote. Exported for tests and telemetry consumers.
inline constexpr double kAlphaMin = 1e-3;
inline constexpr double kAlphaMax = 4.0;

/// Telemetry of one EDDE boosting round (Algorithm 1 lines 6-15): the
/// quantities the paper analyses in Tables IV-VI, captured while training
/// instead of recomputed afterwards. Collected in every run from state the
/// round computes anyway (the diversity from the members' training-set
/// soft targets, which EDDE keeps for H_{t−1}); collection is read-only (no
/// RNG draws), so it never perturbs the trained ensemble.
struct EddeRoundStats {
  int round = 0;                  ///< t, 1-based.
  double alpha = 0.0;             ///< α_t after clamping.
  bool alpha_clamped = false;     ///< α_t hit kAlphaMin / kAlphaMax.
  double correct_sim_mass = 0.0;  ///< Σ Sim·W over correct samples (Eq. 15);
                                  ///< round 1: correct count.
  double wrong_sim_mass = 0.0;    ///< Σ Sim·W over misclassified samples;
                                  ///< round 1: wrong count.
  double mean_pairwise_div = 0.0; ///< Eq. 7 over members so far on the
                                  ///< training set; 0 while T < 2.
  double weight_min = 0.0;        ///< Per-sample weight distribution W_t
  double weight_mean = 0.0;       ///< after the round's update —
  double weight_max = 0.0;        ///< degenerate spreads flag collapse.
  double round_seconds = 0.0;     ///< Wall time of the round; not
                                  ///< checkpointed, so 0 for a round
                                  ///< restored from a generation.
};

/// Options of the EDDE algorithm (paper Algorithm 1) plus the ablation and
/// design-choice switches called out in DESIGN.md.
struct EddeOptions {
  /// γ — strength of the diversity-driven loss term (paper Eq. 10).
  float gamma = 0.1f;
  /// β — fraction of lower-layer knowledge transferred from h_{t−1}.
  double beta = 0.7;
  TransferGranularity granularity = TransferGranularity::kParameterFraction;

  /// Ablation: false reproduces "EDDE (normal loss)" from Table VI.
  bool use_diversity_loss = true;

  /// Ablation: what is transferred between consecutive members.
  enum class TransferMode {
    kSelective,  ///< β fraction of lower layers (EDDE).
    kAll,        ///< everything — "EDDE (transfer all)" (Snapshot-style).
    kNone,       ///< nothing — "EDDE (transfer none)".
  };
  TransferMode transfer_mode = TransferMode::kSelective;

  /// Design choice: Eq. 14 updates W_t from the *initial* weights W₁ (the
  /// paper's choice, so weights do not accumulate boosting emphasis across
  /// rounds); kMultiplicative is classic boosting from W_{t−1}.
  enum class WeightUpdateBase { kFromInitial, kMultiplicative };
  WeightUpdateBase weight_update = WeightUpdateBase::kFromInitial;

  /// Design choice: the soft target the diversity term pushes away from —
  /// the full ensemble H_{t−1} (paper) or just the previous member h_{t−1}.
  enum class DiversityTarget { kEnsemble, kPreviousMember };
  DiversityTarget diversity_target = DiversityTarget::kEnsemble;

  /// Epochs for the first member (paper: the first model trains with a full
  /// Snapshot-style budget, later members with a shorter one). −1 means use
  /// MethodConfig::epochs_per_member.
  int first_member_epochs = -1;

  /// Optional display-name suffix used by ablation benches.
  std::string name_suffix;

  /// Observer: when set, Train appends one EddeRoundStats per member. The
  /// same stats are emitted as JSONL records when a metrics sink is
  /// configured (see utils/metrics.h), independent of this pointer.
  std::vector<EddeRoundStats>* round_stats = nullptr;
};

/// Efficient Diversity-Driven Ensemble — the paper's primary contribution.
///
/// Per Algorithm 1: member h₁ trains normally; each subsequent member is
/// warm-started by β-selective knowledge transfer from h_{t−1}, trained with
/// the diversity-driven weighted loss against the ensemble soft target
/// H_{t−1} (Eq. 10), and folded into the ensemble with weight α_t (Eq. 15)
/// after the per-sample boosting weights are updated via Sim/Bias (Eq. 12-14).
class EddeMethod : public EnsembleMethod {
 public:
  EddeMethod(const MethodConfig& config, const EddeOptions& options)
      : config_(config), options_(options) {}

  EnsembleModel Train(const Dataset& train, const ModelFactory& factory,
                      const EvalCurve& curve = {}) override;
  std::string name() const override;

  const EddeOptions& options() const { return options_; }

 private:
  MethodConfig config_;
  EddeOptions options_;
};

/// Per-sample similarity between a member's soft targets and the ensemble's
/// (paper Eq. 12): Sim_t(x_i) = 1 − (√2/2)‖p_t(x_i) − H_{t−1}(x_i)‖₂.
std::vector<double> PerSampleSimilarity(const Tensor& member_probs,
                                        const Tensor& ensemble_probs);

/// Per-sample bias (paper Eq. 13): Bias_t(x_i) = (√2/2)‖p_t(x_i) − y_i‖₂
/// with y one-hot.
std::vector<double> PerSampleBias(const Tensor& member_probs,
                                  const std::vector<int>& labels);

}  // namespace edde

#endif  // EDDE_CORE_EDDE_H_
