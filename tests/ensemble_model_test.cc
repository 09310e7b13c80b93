#include <gtest/gtest.h>

#include <memory>

#include "ensemble/ensemble_model.h"
#include "metrics/metrics.h"
#include "nn/mlp.h"
#include "test_util.h"

namespace edde {
namespace {

using testing::MakeBlobs;

std::unique_ptr<Mlp> SmallMlp(uint64_t seed, int in = 4, int k = 3) {
  MlpConfig cfg;
  cfg.in_features = in;
  cfg.hidden = {8};
  cfg.num_classes = k;
  return std::make_unique<Mlp>(cfg, seed);
}

TEST(EnsembleModelTest, EmptyByDefault) {
  EnsembleModel m;
  EXPECT_EQ(m.size(), 0);
}

TEST(EnsembleModelTest, AddMemberStoresAlpha) {
  EnsembleModel m;
  m.AddMember(SmallMlp(1), 0.5);
  m.AddMember(SmallMlp(2), 1.5);
  EXPECT_EQ(m.size(), 2);
  EXPECT_DOUBLE_EQ(m.alpha(0), 0.5);
  EXPECT_DOUBLE_EQ(m.alpha(1), 1.5);
}

TEST(EnsembleModelDeathTest, RejectsNonPositiveAlpha) {
  EnsembleModel m;
  EXPECT_DEATH(m.AddMember(SmallMlp(1), 0.0), "positive");
}

TEST(EnsembleModelDeathTest, PredictOnEmptyAborts) {
  EnsembleModel m;
  Dataset data = MakeBlobs(8, 4, 3, 1);
  EXPECT_DEATH(m.PredictProbs(data), "empty ensemble");
}

TEST(EnsembleModelTest, PredictionsAreDistributions) {
  EnsembleModel m;
  m.AddMember(SmallMlp(1), 1.0);
  m.AddMember(SmallMlp(2), 2.0);
  Dataset data = MakeBlobs(16, 4, 3, 2);
  Tensor probs = m.PredictProbs(data);
  ASSERT_EQ(probs.shape(), Shape({16, 3}));
  for (int64_t i = 0; i < 16; ++i) {
    double row = 0.0;
    for (int64_t c = 0; c < 3; ++c) {
      EXPECT_GE(probs.at(i, c), 0.0f);
      row += probs.at(i, c);
    }
    EXPECT_NEAR(row, 1.0, 1e-5);
  }
}

TEST(EnsembleModelTest, SingleMemberEqualsThatModel) {
  EnsembleModel m;
  auto model = SmallMlp(3);
  Mlp* raw = model.get();
  m.AddMember(std::move(model), 2.0);
  Dataset data = MakeBlobs(10, 4, 3, 3);
  Tensor ens = m.PredictProbs(data);
  Tensor solo = PredictProbs(raw, data);
  for (int64_t i = 0; i < ens.num_elements(); ++i) {
    EXPECT_NEAR(ens.at(i), solo.at(i), 1e-6);
  }
}

TEST(EnsembleModelTest, AlphaWeightingFollowsEq16) {
  // H = (α1 p1 + α2 p2) / (α1 + α2).
  EnsembleModel m;
  auto m1 = SmallMlp(4);
  auto m2 = SmallMlp(5);
  Mlp* r1 = m1.get();
  Mlp* r2 = m2.get();
  m.AddMember(std::move(m1), 3.0);
  m.AddMember(std::move(m2), 1.0);
  Dataset data = MakeBlobs(6, 4, 3, 4);
  Tensor p1 = PredictProbs(r1, data);
  Tensor p2 = PredictProbs(r2, data);
  Tensor ens = m.PredictProbs(data);
  for (int64_t i = 0; i < ens.num_elements(); ++i) {
    EXPECT_NEAR(ens.at(i), 0.75f * p1.at(i) + 0.25f * p2.at(i), 1e-5);
  }
}

TEST(EnsembleModelTest, HugeAlphaDominates) {
  EnsembleModel m;
  auto m1 = SmallMlp(6);
  Mlp* r1 = m1.get();
  m.AddMember(std::move(m1), 1e6);
  m.AddMember(SmallMlp(7), 1e-6);
  Dataset data = MakeBlobs(8, 4, 3, 5);
  Tensor ens = m.PredictProbs(data);
  Tensor solo = PredictProbs(r1, data);
  for (int64_t i = 0; i < ens.num_elements(); ++i) {
    EXPECT_NEAR(ens.at(i), solo.at(i), 1e-4);
  }
}

TEST(EnsembleModelTest, MemberProbsMatchesIndividualPredictions) {
  EnsembleModel m;
  auto m1 = SmallMlp(8);
  Mlp* r1 = m1.get();
  m.AddMember(std::move(m1), 1.0);
  m.AddMember(SmallMlp(9), 1.0);
  Dataset data = MakeBlobs(5, 4, 3, 6);
  const auto member_probs = m.MemberProbs(data);
  ASSERT_EQ(member_probs.size(), 2u);
  Tensor direct = PredictProbs(r1, data);
  for (int64_t i = 0; i < direct.num_elements(); ++i) {
    EXPECT_FLOAT_EQ(member_probs[0].at(i), direct.at(i));
  }
}

TEST(EnsembleModelTest, AverageMemberAccuracyIsMeanOfAccuracies) {
  EnsembleModel m;
  auto m1 = SmallMlp(10);
  auto m2 = SmallMlp(11);
  Mlp* r1 = m1.get();
  Mlp* r2 = m2.get();
  m.AddMember(std::move(m1), 1.0);
  m.AddMember(std::move(m2), 1.0);
  Dataset data = MakeBlobs(40, 4, 3, 7);
  const double avg = m.AverageMemberAccuracy(data);
  const double manual =
      (EvaluateAccuracy(r1, data) + EvaluateAccuracy(r2, data)) / 2.0;
  EXPECT_DOUBLE_EQ(avg, manual);
}

// ---------------------------------------------------------------------------
// Predict-path edge cases: degenerate ensembles must surface clean Status
// values through CheckPredictable, never garbage logits or a crash.

TEST(EnsembleModelTest, EmptyEnsembleIsNotPredictable) {
  EnsembleModel m;
  EXPECT_EQ(m.CheckPredictable().code(), StatusCode::kFailedPrecondition);
}

TEST(EnsembleModelTest, AllAlphasClampedIsNotPredictable) {
  // Each α passes AddMember's positivity check, but their sum underflows
  // the normalization guard: α/Σα would blow up, so the ensemble counts as
  // degenerate ("all weights clamped away").
  EnsembleModel m;
  m.AddMember(SmallMlp(1), 1e-31);
  m.AddMember(SmallMlp(2), 1e-32);
  EXPECT_EQ(m.CheckPredictable().code(), StatusCode::kFailedPrecondition);

  EnsembleModel healthy;
  healthy.AddMember(SmallMlp(1), 0.5);
  healthy.AddMember(SmallMlp(2), 2.0);
  EXPECT_TRUE(healthy.CheckPredictable().ok());
}

TEST(EnsembleModelTest, BatchSizeOneMatchesBatchedBitForBit) {
  // Per-row forward/softmax is batch-composition-independent — the same
  // property the serving cascade's row compaction leans on. A regression
  // here (e.g. batch-level normalization sneaking into the predict path)
  // would silently break the cascade's exactness guarantee.
  EnsembleModel m;
  m.AddMember(SmallMlp(1), 1.5);
  m.AddMember(SmallMlp(2), 0.25);
  m.AddMember(SmallMlp(3), 3.0);
  Dataset data = MakeBlobs(17, 4, 3, 4);  // odd size: ragged final batch
  const Tensor batched = m.PredictProbs(data, /*batch_size=*/128);
  const Tensor row_at_a_time = m.PredictProbs(data, /*batch_size=*/1);
  ASSERT_EQ(batched.shape(), row_at_a_time.shape());
  for (int64_t i = 0; i < batched.num_elements(); ++i) {
    EXPECT_EQ(batched.at(i), row_at_a_time.at(i)) << "element " << i;
  }
}

TEST(EnsembleModelTest, AlphaDescendingOrderIsStable) {
  EnsembleModel m;
  m.AddMember(SmallMlp(1), 1.0);
  m.AddMember(SmallMlp(2), 3.0);
  m.AddMember(SmallMlp(3), 3.0);  // ties keep insertion order
  m.AddMember(SmallMlp(4), 0.5);
  const std::vector<int64_t> expected = {1, 2, 0, 3};
  EXPECT_EQ(m.AlphaDescendingOrder(), expected);
}

}  // namespace
}  // namespace edde
