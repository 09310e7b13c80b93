#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "core/edde.h"
#include "data/synthetic_image.h"
#include "metrics/diversity.h"
#include "metrics/metrics.h"
#include "nn/mlp.h"
#include "nn/resnet.h"
#include "test_util.h"
#include "utils/json.h"
#include "utils/metrics.h"
#include "utils/trace.h"

namespace edde {
namespace {

using testing::MakeBlobsSplit;

struct Fixture {
  testing::BlobSplit data = MakeBlobsSplit(384, 192, 6, 3, 1, /*spread=*/1.6f);
  Dataset& train = data.train;
  Dataset& test = data.test;
  ModelFactory factory = [](uint64_t seed) {
    MlpConfig cfg;
    cfg.in_features = 6;
    cfg.hidden = {16};
    cfg.num_classes = 3;
    return std::make_unique<Mlp>(cfg, seed);
  };
  MethodConfig config = [] {
    MethodConfig mc;
    mc.num_members = 4;
    mc.epochs_per_member = 8;
    mc.batch_size = 32;
    mc.sgd.learning_rate = 0.1f;
    mc.sgd.weight_decay = 0.0f;
    mc.seed = 9;
    return mc;
  }();
  EddeOptions options = [] {
    EddeOptions eo;
    eo.gamma = 0.1f;
    eo.beta = 0.7;
    return eo;
  }();
};

// ---------------------------------------------------------------------------
// Per-sample Sim / Bias (Eq. 12 / 13)
// ---------------------------------------------------------------------------

TEST(PerSampleSimilarityTest, IdenticalIsOneOppositeIsZero) {
  Tensor p(Shape{2, 2}, {1.0f, 0.0f, 1.0f, 0.0f});
  Tensor q(Shape{2, 2}, {1.0f, 0.0f, 0.0f, 1.0f});
  const auto sim = PerSampleSimilarity(p, q);
  EXPECT_NEAR(sim[0], 1.0, 1e-6);
  EXPECT_NEAR(sim[1], 0.0, 1e-6);
}

TEST(PerSampleBiasTest, PerfectAndWorstCase) {
  Tensor p(Shape{2, 2}, {1.0f, 0.0f, 0.0f, 1.0f});
  const auto bias = PerSampleBias(p, {0, 0});
  EXPECT_NEAR(bias[0], 0.0, 1e-6);  // exactly the one-hot label
  EXPECT_NEAR(bias[1], 1.0, 1e-6);  // opposite one-hot
}

TEST(PerSampleBiasTest, UniformPredictionMidRange) {
  Tensor p(Shape{1, 4}, {0.25f, 0.25f, 0.25f, 0.25f});
  const auto bias = PerSampleBias(p, {0});
  // ||p - y||_2 = sqrt(0.75^2 + 3*0.0625) = sqrt(0.75); Bias = √2/2 * that.
  EXPECT_NEAR(bias[0], 0.7071 * std::sqrt(0.75), 1e-3);
}

// ---------------------------------------------------------------------------
// Algorithm 1 end-to-end
// ---------------------------------------------------------------------------

TEST(EddeTest, TrainsRequestedMembersWithPositiveAlphas) {
  Fixture fx;
  EddeMethod method(fx.config, fx.options);
  EnsembleModel model = method.Train(fx.train, fx.factory);
  ASSERT_EQ(model.size(), 4);
  for (int64_t t = 0; t < model.size(); ++t) {
    EXPECT_GT(model.alpha(t), 0.0);
  }
}

TEST(EddeTest, EnsembleBeatsAverageMember) {
  Fixture fx;
  EddeMethod method(fx.config, fx.options);
  EnsembleModel model = method.Train(fx.train, fx.factory);
  EXPECT_GT(model.EvaluateAccuracy(fx.test),
            MeanMemberAccuracy(model.MemberProbs(fx.test), fx.test.labels()) -
                1e-9);
}

TEST(EddeTest, AccuracyIsWellAboveChance) {
  Fixture fx;
  EddeMethod method(fx.config, fx.options);
  EnsembleModel model = method.Train(fx.train, fx.factory);
  EXPECT_GT(model.EvaluateAccuracy(fx.test), 0.75);
}

TEST(EddeTest, DiversityLossIncreasesDiversity) {
  Fixture fx;
  EddeOptions with = fx.options;
  with.gamma = 0.6f;
  EddeOptions without = fx.options;
  without.use_diversity_loss = false;
  EddeMethod m_with(fx.config, with);
  EddeMethod m_without(fx.config, without);
  const double div_with =
      EnsembleDiversity(m_with.Train(fx.train, fx.factory)
                            .MemberProbs(fx.test));
  const double div_without =
      EnsembleDiversity(m_without.Train(fx.train, fx.factory)
                            .MemberProbs(fx.test));
  EXPECT_GT(div_with, div_without);
}

TEST(EddeTest, TransferNoneIsMoreDiverseThanTransferAll) {
  // Table VI's qualitative ordering.
  Fixture fx;
  EddeOptions all = fx.options;
  all.transfer_mode = EddeOptions::TransferMode::kAll;
  EddeOptions none = fx.options;
  none.transfer_mode = EddeOptions::TransferMode::kNone;
  EddeMethod m_all(fx.config, all);
  EddeMethod m_none(fx.config, none);
  const double div_all =
      EnsembleDiversity(m_all.Train(fx.train, fx.factory).MemberProbs(fx.test));
  const double div_none = EnsembleDiversity(
      m_none.Train(fx.train, fx.factory).MemberProbs(fx.test));
  EXPECT_GT(div_none, div_all);
}

TEST(EddeTest, FirstMemberEpochsExtendBudget) {
  Fixture fx;
  EddeOptions eo = fx.options;
  eo.first_member_epochs = 16;
  EddeMethod method(fx.config, eo);
  std::vector<CurvePoint> points;
  EvalCurve curve{&fx.test, &points};
  method.Train(fx.train, fx.factory, curve);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].first, 16);            // long first member
  EXPECT_EQ(points[1].first, 16 + 8);        // then short cycles
  EXPECT_EQ(points[3].first, 16 + 3 * 8);
}

TEST(EddeTest, NameReflectsAblationVariant) {
  Fixture fx;
  EXPECT_EQ(EddeMethod(fx.config, fx.options).name(), "EDDE");
  EddeOptions eo = fx.options;
  eo.use_diversity_loss = false;
  EXPECT_EQ(EddeMethod(fx.config, eo).name(), "EDDE (normal loss)");
  eo = fx.options;
  eo.transfer_mode = EddeOptions::TransferMode::kAll;
  EXPECT_EQ(EddeMethod(fx.config, eo).name(), "EDDE (transfer all)");
  eo.transfer_mode = EddeOptions::TransferMode::kNone;
  EXPECT_EQ(EddeMethod(fx.config, eo).name(), "EDDE (transfer none)");
}

TEST(EddeTest, DeterministicForSameSeed) {
  Fixture fx;
  EddeMethod a(fx.config, fx.options), b(fx.config, fx.options);
  EXPECT_DOUBLE_EQ(a.Train(fx.train, fx.factory).EvaluateAccuracy(fx.test),
                   b.Train(fx.train, fx.factory).EvaluateAccuracy(fx.test));
}

TEST(EddeTest, DiversityTargetPreviousMemberVariantRuns) {
  Fixture fx;
  EddeOptions eo = fx.options;
  eo.diversity_target = EddeOptions::DiversityTarget::kPreviousMember;
  EddeMethod method(fx.config, eo);
  EnsembleModel model = method.Train(fx.train, fx.factory);
  EXPECT_EQ(model.size(), 4);
  EXPECT_GT(model.EvaluateAccuracy(fx.test), 0.7);
}

TEST(EddeTest, MultiplicativeWeightUpdateVariantRuns) {
  Fixture fx;
  EddeOptions eo = fx.options;
  eo.weight_update = EddeOptions::WeightUpdateBase::kMultiplicative;
  EddeMethod method(fx.config, eo);
  EnsembleModel model = method.Train(fx.train, fx.factory);
  EXPECT_EQ(model.size(), 4);
  EXPECT_GT(model.EvaluateAccuracy(fx.test), 0.7);
}

// ---------------------------------------------------------------------------
// Member passes over the training set: EDDE evaluates each member on
// `train` once, in the round that trains it, and keeps those soft targets
// for H_{t−1}, the kPreviousMember reference and Eq. 7.
// ---------------------------------------------------------------------------

/// Counts the rows that eval-mode Forward sees and the batches that
/// training-mode Forward sees, summed over every member of one factory
/// (MemberProbs may evaluate members concurrently).
class PassCounter : public Module {
 public:
  struct Counts {
    std::atomic<int64_t> eval_rows{0};
    std::atomic<int64_t> train_batches{0};
  };

  PassCounter(std::unique_ptr<Module> inner, std::shared_ptr<Counts> counts)
      : inner_(std::move(inner)), counts_(std::move(counts)) {}

  void CollectParameters(std::vector<Parameter*>* out) override {
    inner_->CollectParameters(out);
  }
  std::string name() const override { return inner_->name(); }
  void PackForEval() override { inner_->PackForEval(); }

 protected:
  Tensor ForwardImpl(const Tensor& input, Tape* tape) override {
    if (tape == nullptr) {
      counts_->eval_rows += input.shape().dim(0);
    } else {
      ++counts_->train_batches;
    }
    return inner_->Forward(input, tape);
  }
  Tensor BackwardImpl(const Tensor& grad_output, Tape* tape) override {
    return inner_->Backward(grad_output, tape);
  }

 private:
  std::unique_ptr<Module> inner_;
  std::shared_ptr<Counts> counts_;
};

struct PassFixture {
  TrainTestSplit data = [] {
    SyntheticImageConfig cfg;
    cfg.num_classes = 3;
    cfg.train_size = 96;
    cfg.test_size = 16;
    cfg.image_size = 8;
    cfg.seed = 3;
    return MakeSyntheticImageData(cfg);
  }();
  std::shared_ptr<PassCounter::Counts> counts =
      std::make_shared<PassCounter::Counts>();
  ModelFactory factory = [counts = counts](uint64_t seed) {
    ResNetConfig cfg;
    cfg.depth = 8;
    cfg.base_width = 2;
    cfg.num_classes = 3;
    return std::make_unique<PassCounter>(std::make_unique<ResNet>(cfg, seed),
                                         counts);
  };
  MethodConfig config = [] {
    MethodConfig mc;
    mc.num_members = 4;
    mc.epochs_per_member = 1;
    mc.batch_size = 32;
    mc.seed = 5;
    return mc;
  }();

  /// Eval-mode rows that `passes` passes over the training set take.
  int64_t PassRows(int64_t passes) const { return passes * data.train.size(); }
};

class EddeTrainPassesTest
    : public ::testing::TestWithParam<EddeOptions::DiversityTarget> {};

TEST_P(EddeTrainPassesTest, EachMemberEvaluatesTrainOnce) {
  PassFixture fx;
  EddeOptions eo;
  eo.diversity_target = GetParam();
  EnsembleModel model =
      EddeMethod(fx.config, eo).Train(fx.data.train, fx.factory);
  ASSERT_EQ(model.size(), 4);
  EXPECT_EQ(fx.counts->eval_rows.load(), fx.PassRows(4));
}

INSTANTIATE_TEST_SUITE_P(
    DiversityTargets, EddeTrainPassesTest,
    ::testing::Values(EddeOptions::DiversityTarget::kEnsemble,
                      EddeOptions::DiversityTarget::kPreviousMember));

TEST(EddeTrainPassesResumeTest, ResumedRunEvaluatesEachMemberOnce) {
  // A run resumed after round 2 evaluates its two restored members once
  // each, then each of the two members it trains once: T passes again.
  namespace fs = std::filesystem;
  PassFixture fx;
  const fs::path dir = fs::path(::testing::TempDir()) / "edde_pass_resume";
  fs::remove_all(dir);
  fx.config.checkpoint.dir = dir.string();
  fx.config.checkpoint.every = 1;
  fx.config.checkpoint.keep = 10;
  const EddeOptions eo;
  const EnsembleModel reference =
      EddeMethod(fx.config, eo).Train(fx.data.train, fx.factory);
  const int64_t full_train_batches = fx.counts->train_batches.load();

  int removed = 0;
  for (const fs::directory_entry& run : fs::directory_iterator(dir)) {
    for (const char* name : {"ckpt_00000003.edde", "ckpt_00000004.edde"}) {
      removed += fs::remove(run.path() / name) ? 1 : 0;
    }
  }
  ASSERT_EQ(removed, 2);

  fx.counts->eval_rows = 0;
  fx.counts->train_batches = 0;
  const EnsembleModel resumed =
      EddeMethod(fx.config, eo).Train(fx.data.train, fx.factory);
  EXPECT_EQ(resumed.alphas(), reference.alphas());
  // Resumed, not retrained from scratch: only rounds 3 and 4 train.
  EXPECT_GT(fx.counts->train_batches.load(), 0);
  EXPECT_LT(fx.counts->train_batches.load(), full_train_batches);
  EXPECT_EQ(fx.counts->eval_rows.load(), fx.PassRows(4));
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Round telemetry (EddeRoundStats)
// ---------------------------------------------------------------------------

TEST(EddeRoundStatsTest, DiversityCounterTracedWithoutSinkOrObserver) {
  // The edde.mean_pairwise_div trace counter carries the real Eq. 7 value
  // in a run traced with no JSONL sink and no round_stats observer.
  ASSERT_FALSE(MetricsRegistry::Global().events_enabled());
  Fixture fx;
  const std::string path = ::testing::TempDir() + "/edde_div_trace.json";
  ResetTraceBuffers();
  SetTracePath(path);
  EddeMethod(fx.config, fx.options).Train(fx.train, fx.factory);
  const Status dumped = DumpTraceTo(path);
  SetTracePath("");
  ResetTraceBuffers();
  ASSERT_TRUE(dumped.ok()) << dumped.ToString();

  JsonValue root;
  const Status parsed = JsonValue::ParseFile(path, &root);
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();
  std::remove(path.c_str());
  const JsonValue* events = root.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  std::vector<double> div;  // one sample per round, in round order
  for (const JsonValue& e : events->AsArray()) {
    if (e.GetStringOr("ph", "") == "C" &&
        e.GetStringOr("name", "") == "edde.mean_pairwise_div") {
      div.push_back(e.Get("args")->GetNumberOr("value", -1.0));
    }
  }
  ASSERT_EQ(div.size(), 4u);
  EXPECT_EQ(div[0], 0.0);  // Eq. 7 needs T >= 2
  for (size_t round = 2; round <= div.size(); ++round) {
    EXPECT_GT(div[round - 1], 0.0) << "round " << round;
  }
}

TEST(EddeRoundStatsTest, OneRecordPerMemberWithSaneValues) {
  Fixture fx;
  std::vector<EddeRoundStats> stats;
  EddeOptions eo = fx.options;
  eo.round_stats = &stats;
  EddeMethod method(fx.config, eo);
  EnsembleModel model = method.Train(fx.train, fx.factory);
  ASSERT_EQ(stats.size(), 4u);
  for (size_t i = 0; i < stats.size(); ++i) {
    const EddeRoundStats& s = stats[i];
    EXPECT_EQ(s.round, static_cast<int>(i) + 1);
    // α_t mirrors the ensemble's member weight and obeys the Eq. 15 clamp.
    EXPECT_DOUBLE_EQ(s.alpha, model.alpha(static_cast<int64_t>(i)));
    EXPECT_GE(s.alpha, kAlphaMin);
    EXPECT_LE(s.alpha, kAlphaMax);
    EXPECT_TRUE(std::isfinite(s.correct_sim_mass));
    EXPECT_TRUE(std::isfinite(s.wrong_sim_mass));
    EXPECT_GE(s.correct_sim_mass, 0.0);
    EXPECT_GE(s.wrong_sim_mass, 0.0);
    // The per-sample weight summary must describe a real distribution. The
    // mean is accumulated in floating point, so give it one ulp of slack
    // for the uniform-weight round where min == mean == max.
    EXPECT_GT(s.weight_min, 0.0);
    EXPECT_LE(s.weight_min, s.weight_mean * (1.0 + 1e-12));
    EXPECT_LE(s.weight_mean, s.weight_max * (1.0 + 1e-12));
    EXPECT_GE(s.round_seconds, 0.0);
    // Eq. 7 needs two members; later rounds must report a real diversity.
    if (s.round < 2) {
      EXPECT_EQ(s.mean_pairwise_div, 0.0);
    } else {
      EXPECT_GT(s.mean_pairwise_div, 0.0);
      EXPECT_TRUE(std::isfinite(s.mean_pairwise_div));
    }
  }
}

TEST(EddeRoundStatsTest, FinalRoundDivMatchesRecomputation) {
  Fixture fx;
  std::vector<EddeRoundStats> stats;
  EddeOptions eo = fx.options;
  eo.round_stats = &stats;
  EddeMethod method(fx.config, eo);
  EnsembleModel model = method.Train(fx.train, fx.factory);
  ASSERT_EQ(stats.size(), 4u);
  // The recorded final-round Eq. 7 diversity is computed from the members'
  // training-set probs; recomputing from the trained ensemble must agree
  // exactly (same deterministic code path, same inputs).
  const double recomputed = EnsembleDiversity(model.MemberProbs(fx.train));
  EXPECT_DOUBLE_EQ(stats.back().mean_pairwise_div, recomputed);
}

TEST(EddeRoundStatsTest, ObserverDoesNotPerturbTraining) {
  Fixture fx;
  EddeMethod plain(fx.config, fx.options);
  const double acc_plain =
      plain.Train(fx.train, fx.factory).EvaluateAccuracy(fx.test);
  std::vector<EddeRoundStats> stats;
  EddeOptions eo = fx.options;
  eo.round_stats = &stats;
  EddeMethod observed(fx.config, eo);
  const double acc_observed =
      observed.Train(fx.train, fx.factory).EvaluateAccuracy(fx.test);
  EXPECT_DOUBLE_EQ(acc_plain, acc_observed);
}

// Parameterized sweep over the paper's γ grid (Table V): all settings must
// produce healthy ensembles.
class EddeGammaTest : public ::testing::TestWithParam<float> {};

TEST_P(EddeGammaTest, HealthyAcrossGammaGrid) {
  Fixture fx;
  EddeOptions eo = fx.options;
  eo.gamma = GetParam();
  EddeMethod method(fx.config, eo);
  EnsembleModel model = method.Train(fx.train, fx.factory);
  EXPECT_EQ(model.size(), 4);
  EXPECT_GT(model.EvaluateAccuracy(fx.test), 0.6);
}

INSTANTIATE_TEST_SUITE_P(PaperTableV, EddeGammaTest,
                         ::testing::Values(0.0f, 0.1f, 0.3f, 0.5f, 1.0f));

}  // namespace
}  // namespace edde
