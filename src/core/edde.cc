#include "core/edde.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "data/sampling.h"
#include "ensemble/run_checkpoint.h"
#include "metrics/diversity.h"
#include "metrics/metrics.h"
#include "tensor/ops.h"
#include "utils/durable_io.h"
#include "utils/logging.h"
#include "utils/metrics.h"
#include "utils/trace.h"

namespace edde {

namespace {

constexpr double kHalfSqrt2 = 0.7071067811865476;  // √2 / 2

/// Retrain budget for a member whose training diverged (non-finite
/// predictions). Attempt 0 is the paper's warm-started round; retries drop
/// the transfer trunk, and the final one also drops the diversity term.
constexpr int kMaxDivergedRetrains = 2;

bool AllFinite(const Tensor& t) {
  const float* p = t.data();
  for (int64_t i = 0; i < t.shape().num_elements(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

/// Min/mean/max of the per-sample weight distribution W_t.
void SummarizeWeights(const std::vector<double>& weights,
                      EddeRoundStats* stats) {
  double lo = weights[0], hi = weights[0], total = 0.0;
  for (double w : weights) {
    lo = std::min(lo, w);
    hi = std::max(hi, w);
    total += w;
  }
  stats->weight_min = lo;
  stats->weight_max = hi;
  stats->weight_mean = total / static_cast<double>(weights.size());
}

/// Records one round's stats into the observer vector, the aggregate
/// instruments, and (when a sink is configured) the JSONL event log.
void RecordRoundStats(const EddeRoundStats& stats,
                      std::vector<EddeRoundStats>* observer) {
  if (observer != nullptr) observer->push_back(stats);
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("edde.rounds")->Increment();
  if (stats.alpha_clamped) {
    registry.GetCounter("edde.alpha_clamp_hits")->Increment();
  }
  TraceCounter("edde.alpha", stats.alpha);
  TraceCounter("edde.mean_pairwise_div", stats.mean_pairwise_div);
  if (registry.events_enabled()) {
    registry.EmitEvent(JsonBuilder()
                           .Add("record", "edde_round")
                           .Add("round", stats.round)
                           .Add("alpha", stats.alpha)
                           .Add("alpha_clamped", stats.alpha_clamped)
                           .Add("correct_sim_mass", stats.correct_sim_mass)
                           .Add("wrong_sim_mass", stats.wrong_sim_mass)
                           .Add("mean_pairwise_div", stats.mean_pairwise_div)
                           .Add("weight_min", stats.weight_min)
                           .Add("weight_mean", stats.weight_mean)
                           .Add("weight_max", stats.weight_max)
                           .Add("round_seconds", stats.round_seconds)
                           .Build());
  }
}

// EDDE's method-state checkpoint section: the per-round stats recorded so
// far, so a resumed run hands observers the full history. Only values that
// are a function of the run go in, so two identical runs write identical
// generations: the wall-clock round_seconds stays in the JSONL record and
// the in-memory observer, and reads back as 0. A section written while
// the records still ended with round_seconds leaves trailing bytes, fails
// to parse, and is discarded by Train's fallback.
SectionWriter PackRoundStats(const std::vector<EddeRoundStats>& stats) {
  SectionWriter blob;
  blob.WriteU64(stats.size());
  for (const EddeRoundStats& s : stats) {
    blob.WriteI64(s.round);
    blob.WriteF64(s.alpha);
    blob.WriteU32(s.alpha_clamped ? 1 : 0);
    blob.WriteF64(s.correct_sim_mass);
    blob.WriteF64(s.wrong_sim_mass);
    blob.WriteF64(s.mean_pairwise_div);
    blob.WriteF64(s.weight_min);
    blob.WriteF64(s.weight_mean);
    blob.WriteF64(s.weight_max);
  }
  return blob;
}

Status UnpackRoundStats(SectionReader* in,
                        std::vector<EddeRoundStats>* stats) {
  uint64_t count = 0;
  if (!in->ReadU64(&count)) return in->status();
  for (uint64_t i = 0; i < count; ++i) {
    EddeRoundStats s;
    int64_t round = 0;
    uint32_t clamped = 0;
    if (!in->ReadI64(&round) || !in->ReadF64(&s.alpha) ||
        !in->ReadU32(&clamped) || !in->ReadF64(&s.correct_sim_mass) ||
        !in->ReadF64(&s.wrong_sim_mass) ||
        !in->ReadF64(&s.mean_pairwise_div) || !in->ReadF64(&s.weight_min) ||
        !in->ReadF64(&s.weight_mean) || !in->ReadF64(&s.weight_max)) {
      return in->status();
    }
    s.round = static_cast<int>(round);
    s.alpha_clamped = clamped != 0;
    stats->push_back(s);
  }
  if (in->remaining() != 0) {
    return Status::Corruption("EDDE round stats: trailing bytes");
  }
  return Status::OK();
}

}  // namespace

std::vector<double> PerSampleSimilarity(const Tensor& member_probs,
                                        const Tensor& ensemble_probs) {
  const std::vector<float> dist = RowL2Distance(member_probs, ensemble_probs);
  std::vector<double> sim(dist.size());
  for (size_t i = 0; i < dist.size(); ++i) {
    sim[i] = 1.0 - kHalfSqrt2 * dist[i];
  }
  return sim;
}

std::vector<double> PerSampleBias(const Tensor& member_probs,
                                  const std::vector<int>& labels) {
  const int64_t n = member_probs.shape().dim(0);
  const int64_t k = member_probs.shape().dim(1);
  EDDE_CHECK_EQ(static_cast<int64_t>(labels.size()), n);
  std::vector<double> bias(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const float* p = member_probs.data() + i * k;
    double acc = 0.0;
    for (int64_t c = 0; c < k; ++c) {
      const double target = (c == labels[static_cast<size_t>(i)]) ? 1.0 : 0.0;
      const double diff = p[c] - target;
      acc += diff * diff;
    }
    bias[static_cast<size_t>(i)] = kHalfSqrt2 * std::sqrt(acc);
  }
  return bias;
}

std::string EddeMethod::name() const {
  std::string n = "EDDE";
  if (!options_.use_diversity_loss) n += " (normal loss)";
  if (options_.transfer_mode == EddeOptions::TransferMode::kAll) {
    n += " (transfer all)";
  } else if (options_.transfer_mode == EddeOptions::TransferMode::kNone) {
    n += " (transfer none)";
  }
  if (!options_.name_suffix.empty()) n += " " + options_.name_suffix;
  return n;
}

EnsembleModel EddeMethod::Train(const Dataset& train,
                                const ModelFactory& factory,
                                const EvalCurve& curve) {
  Rng rng(config_.seed);
  const int64_t n = train.size();
  const int first_epochs = options_.first_member_epochs > 0
                               ? options_.first_member_epochs
                               : config_.epochs_per_member;

  // Line 2: W₁(x_i) = 1/N.
  const std::vector<double> initial_weights(static_cast<size_t>(n),
                                            1.0 / static_cast<double>(n));
  std::vector<double> weights = initial_weights;

  EnsembleModel ensemble;

  // Every member's soft targets on `train`, in member order, each computed
  // once, in the round that trained it: H_{t−1} is their Eq. 16
  // combination, and Eq. 7 diversity reads them too.
  std::vector<Tensor> member_train_probs;

  // Crash consistency (DESIGN.md §11): the round loop restores members, α,
  // W_t, the RNG and the curve points; the method-state section carries the
  // round stats.
  RoundCheckpointer rounds(
      config_, name(), train, factory, curve,
      {.ensemble = &ensemble, .rng = &rng, .weights = &weights});
  std::vector<EddeRoundStats> stats_log;  // full history, checkpointed
  SectionReader method_state = rounds.Resume();
  if (rounds.rounds() > 0) {
    Status unpacked = UnpackRoundStats(&method_state, &stats_log);
    if (!unpacked.ok()) {
      // The stats are observation only; a section that passed the CRC and
      // version checks yet does not parse costs the history, not the run.
      EDDE_LOG(WARNING) << "discarding EDDE round stats: "
                        << unpacked.ToString();
      stats_log.clear();
    }
    // Completed rounds are handed to the observer from the checkpoint
    // (no JSONL re-emission — those records were already written by the
    // original process). The restored members' soft targets are
    // recomputed, one pass each: eval is deterministic and packing a
    // member for eval keeps its bits, so they equal the lost originals.
    if (options_.round_stats != nullptr) {
      options_.round_stats->insert(options_.round_stats->end(),
                                   stats_log.begin(), stats_log.end());
    }
    member_train_probs = ensemble.MemberProbs(train);
  }
  auto end_round = [&](int epochs, const EddeRoundStats& stats) {
    RecordRoundStats(stats, options_.round_stats);
    stats_log.push_back(stats);
    rounds.EndRound(epochs, PackRoundStats(stats_log));
  };

  static const TraceRegion* const round_region = GetTraceRegion("edde/round");

  // ---- Line 3-5: first member, plain training on uniform weights. ----
  if (rounds.rounds() < 1) {
    TraceScope round_scope(round_region);
    Timer round_timer;
    std::unique_ptr<Module> h1 = factory(rng.NextU64());
    rounds.TrainMember(h1.get(), train,
                       rounds.MemberConfig(1, first_epochs, rng.NextU64()));

    // Line 4 computes α₁ from the correct/incorrect count ratio. We take
    // the ½·log of that ratio so α₁ lives on the same scale as the later
    // α_t of Eq. 15 (the paper's line 4 as printed would give the first
    // member an outsized vote).
    Tensor h1_probs = PredictProbs(h1.get(), train);
    const std::vector<int> preds = ArgmaxRows(h1_probs);
    int64_t correct = 0;
    for (int64_t i = 0; i < n; ++i) {
      if (preds[static_cast<size_t>(i)] ==
          train.labels()[static_cast<size_t>(i)]) {
        ++correct;
      }
    }
    const double wrong = static_cast<double>(n - correct);
    const double raw_alpha1 =
        0.5 * std::log(std::max(static_cast<double>(correct), 1.0) /
                       std::max(wrong, 1.0));
    const double alpha1 = std::clamp(raw_alpha1, kAlphaMin, kAlphaMax);
    member_train_probs.push_back(std::move(h1_probs));
    ensemble.AddMember(std::move(h1), alpha1);

    EddeRoundStats stats;
    stats.round = 1;
    stats.alpha = alpha1;
    stats.alpha_clamped = raw_alpha1 != alpha1;
    stats.correct_sim_mass = static_cast<double>(correct);
    stats.wrong_sim_mass = wrong;
    stats.mean_pairwise_div = 0.0;  // Eq. 7 needs T >= 2
    SummarizeWeights(weights, &stats);
    stats.round_seconds = round_timer.Seconds();
    end_round(first_epochs, stats);
  }

  // ---- Lines 6-15: subsequent members. ----
  for (int t = std::max(2, rounds.rounds() + 1); t <= config_.num_members;
       ++t) {
    TraceScope round_scope(round_region);
    Timer round_timer;
    // Soft targets of the current ensemble H_{t−1} on the training set.
    const Tensor ensemble_probs = ensemble.Combine(member_train_probs);
    const Tensor& diversity_reference =
        options_.diversity_target ==
                EddeOptions::DiversityTarget::kPreviousMember
            ? member_train_probs.back()
            : ensemble_probs;

    // Line 7: I(D, W_{t−1}, h_{t−1}, H_{t−1}, γ, β) — warm start + train.
    //
    // With divergence containment: transfer hands the member a mostly
    // trained trunk, and restarting it at the schedule's full learning
    // rate — while the diversity term pushes away from a by-now-sharp
    // H_{t−1} — can blow the parameters up. Non-finite predictions would
    // poison Sim/Bias, the Eq. 14/15 updates, and every later ensemble
    // prediction, so a diverged member is void: discard it and retrain
    // the round, first from a cold initialization (dropping the trunk the
    // restart diverged from), then additionally without the diversity
    // term. A void attempt only consumed W_{t−1}, never updated it, so
    // boosting state carries over to the retry untouched.
    const std::vector<float> scaled_weights = ScaleWeightsToMeanOne(weights);
    std::unique_ptr<Module> ht;
    Tensor member_probs;
    bool member_finite = false;
    for (int attempt = 0; attempt <= kMaxDivergedRetrains; ++attempt) {
      ht = factory(rng.NextU64());
      if (attempt == 0) {
        switch (options_.transfer_mode) {
          case EddeOptions::TransferMode::kSelective:
            TransferKnowledge(ensemble.member(ensemble.size() - 1), ht.get(),
                              options_.beta, options_.granularity);
            break;
          case EddeOptions::TransferMode::kAll:
            TransferKnowledge(ensemble.member(ensemble.size() - 1), ht.get(),
                              1.0, options_.granularity);
            break;
          case EddeOptions::TransferMode::kNone:
            break;
        }
      }
      TrainContext ctx;
      ctx.sample_weights = &scaled_weights;
      if (options_.use_diversity_loss && options_.gamma != 0.0f &&
          attempt < kMaxDivergedRetrains) {
        ctx.reference_probs = &diversity_reference;
        ctx.loss.diversity_gamma = options_.gamma;
      }
      rounds.TrainMember(ht.get(), train,
                         rounds.MemberConfig(t, config_.epochs_per_member,
                                             rng.NextU64(), attempt),
                         ctx);
      member_probs = PredictProbs(ht.get(), train);
      member_finite = AllFinite(member_probs);
      if (member_finite) break;
      MetricsRegistry::Global()
          .GetCounter("edde.diverged_member_retrains")
          ->Increment();
      EDDE_LOG(WARNING) << "member " << t
                        << " diverged to non-finite predictions (attempt "
                        << attempt << "); retraining from cold init";
    }
    EDDE_CHECK(member_finite)
        << "member " << t << " diverged on every retrain attempt";
    const std::vector<int> preds = ArgmaxRows(member_probs);
    const std::vector<double> sim =
        PerSampleSimilarity(member_probs, ensemble_probs);
    const std::vector<double> bias = PerSampleBias(member_probs,
                                                   train.labels());

    // Line 10 (Eq. 14): raise the weight of misclassified samples by
    // e^{Sim+Bias}; correctly classified samples keep their base weight.
    const std::vector<double>& base =
        options_.weight_update == EddeOptions::WeightUpdateBase::kFromInitial
            ? initial_weights
            : weights;
    std::vector<double> new_weights(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      const size_t s = static_cast<size_t>(i);
      const bool wrong = preds[s] != train.labels()[s];
      new_weights[s] = base[s] * (wrong ? std::exp(sim[s] + bias[s]) : 1.0);
    }
    NormalizeWeights(&new_weights);  // Z_t

    // Line 12 (Eq. 15): member weight from the Sim-weighted correct vs
    // incorrect mass, weighted by the pre-update W_{t−1}. Algorithm 1 as
    // printed uses the updated W_t, whose mass sits on h_t's own errors; at
    // moderate train accuracy that drives α_t to its floor while α₁ stays
    // large, so the first member dominates the vote (DESIGN.md §5).
    double correct_mass = 0.0, wrong_mass = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      const size_t s = static_cast<size_t>(i);
      const double mass = sim[s] * weights[s];
      if (preds[s] == train.labels()[s]) {
        correct_mass += mass;
      } else {
        wrong_mass += mass;
      }
    }
    const double raw_alpha =
        0.5 * std::log(std::max(correct_mass, 1e-12) /
                       std::max(wrong_mass, 1e-12));
    const double alpha = std::clamp(raw_alpha, kAlphaMin, kAlphaMax);
    weights = std::move(new_weights);

    member_train_probs.push_back(std::move(member_probs));
    ensemble.AddMember(std::move(ht), alpha);

    EddeRoundStats stats;
    stats.round = t;
    stats.alpha = alpha;
    stats.alpha_clamped = raw_alpha != alpha;
    stats.correct_sim_mass = correct_mass;
    stats.wrong_sim_mass = wrong_mass;
    stats.mean_pairwise_div = EnsembleDiversity(member_train_probs);
    SummarizeWeights(weights, &stats);
    stats.round_seconds = round_timer.Seconds();
    end_round(config_.epochs_per_member, stats);
  }
  return ensemble;
}

}  // namespace edde
