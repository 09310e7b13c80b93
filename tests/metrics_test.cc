#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic_image.h"
#include "metrics/bias_variance.h"
#include "metrics/diversity.h"
#include "metrics/metrics.h"
#include "nn/mlp.h"
#include "tensor/ops.h"

namespace edde {
namespace {

// ---------------------------------------------------------------------------
// Accuracy
// ---------------------------------------------------------------------------

TEST(AccuracyTest, CountsMatches) {
  EXPECT_DOUBLE_EQ(Accuracy({1, 2, 3, 1}, {1, 2, 0, 0}), 0.5);
  EXPECT_DOUBLE_EQ(Accuracy({0}, {0}), 1.0);
}

TEST(PredictTest, ModelPredictionsConsistentAcrossBatchSizes) {
  MlpConfig cfg;
  cfg.in_features = 3 * 8 * 8;
  cfg.num_classes = 4;
  Mlp model(cfg, 1);
  SyntheticImageConfig dc;
  dc.num_classes = 4;
  dc.train_size = 4;
  dc.test_size = 50;
  const auto data = MakeSyntheticImageData(dc);
  // Flatten image features into (N, D) for the MLP.
  Tensor flat = data.test.features().Reshape(
      Shape{data.test.size(), 3 * 8 * 8});
  Dataset flat_data("flat", flat, data.test.labels(), 4);
  const auto p1 = PredictLabels(&model, flat_data, 7);
  const auto p2 = PredictLabels(&model, flat_data, 50);
  EXPECT_EQ(p1, p2);
  EXPECT_DOUBLE_EQ(EvaluateAccuracy(&model, flat_data, 7),
                   Accuracy(p1, flat_data.labels()));
}

// ---------------------------------------------------------------------------
// Diversity (paper Eq. 2 / 3 / 7)
// ---------------------------------------------------------------------------

TEST(DiversityTest, IdenticalModelsHaveZeroDiversity) {
  Tensor p(Shape{3, 2}, {0.9f, 0.1f, 0.2f, 0.8f, 0.5f, 0.5f});
  EXPECT_DOUBLE_EQ(PairwiseDiversity(p, p), 0.0);
  EXPECT_DOUBLE_EQ(PairwiseSimilarity(p, p), 1.0);
}

TEST(DiversityTest, MaximallyOpposedDistributionsGiveOne) {
  // One-hot vs opposite one-hot: ||p-q||_2 = sqrt(2), so Div = 1 (Eq. 6's
  // bound is attained).
  Tensor p(Shape{1, 2}, {1.0f, 0.0f});
  Tensor q(Shape{1, 2}, {0.0f, 1.0f});
  EXPECT_NEAR(PairwiseDiversity(p, q), 1.0, 1e-6);
  EXPECT_NEAR(PairwiseSimilarity(p, q), 0.0, 1e-6);
}

TEST(DiversityTest, KnownHandComputedValue) {
  Tensor p(Shape{1, 2}, {0.8f, 0.2f});
  Tensor q(Shape{1, 2}, {0.6f, 0.4f});
  // ||p-q|| = sqrt(0.04+0.04) = 0.2828...; Div = (√2/2)*0.28284 = 0.2.
  EXPECT_NEAR(PairwiseDiversity(p, q), 0.2, 1e-6);
}

TEST(DiversityTest, SymmetricAndBounded) {
  Rng rng(1);
  Tensor a = Softmax([&] {
    Tensor t(Shape{10, 5});
    t.FillNormal(&rng, 0.0f, 2.0f);
    return t;
  }());
  Tensor b = Softmax([&] {
    Tensor t(Shape{10, 5});
    t.FillNormal(&rng, 0.0f, 2.0f);
    return t;
  }());
  const double dab = PairwiseDiversity(a, b);
  EXPECT_DOUBLE_EQ(dab, PairwiseDiversity(b, a));
  EXPECT_GT(dab, 0.0);
  EXPECT_LE(dab, 1.0);
}

TEST(EnsembleDiversityTest, AveragesAllPairs) {
  Tensor a(Shape{1, 2}, {1.0f, 0.0f});
  Tensor b(Shape{1, 2}, {0.0f, 1.0f});
  Tensor c(Shape{1, 2}, {1.0f, 0.0f});
  // Pairs: (a,b)=1, (a,c)=0, (b,c)=1 -> mean = 2/3.
  EXPECT_NEAR(EnsembleDiversity({a, b, c}), 2.0 / 3.0, 1e-6);
}

TEST(EnsembleDiversityDeathTest, NeedsTwoMembers) {
  Tensor a(Shape{1, 2}, {1.0f, 0.0f});
  EXPECT_DEATH(EnsembleDiversity({a}), ">= 2");
}

TEST(SimilarityMatrixTest, UnitDiagonalSymmetric) {
  Rng rng(2);
  std::vector<Tensor> probs;
  for (int i = 0; i < 4; ++i) {
    Tensor t(Shape{6, 3});
    t.FillNormal(&rng, 0.0f, 1.0f);
    probs.push_back(Softmax(t));
  }
  const auto sim = PairwiseSimilarityMatrix(probs);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(sim[i][i], 1.0);
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(sim[i][j], sim[j][i]);
      EXPECT_LE(sim[i][j], 1.0);
      EXPECT_GE(sim[i][j], 0.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Hard-prediction disagreement
// ---------------------------------------------------------------------------

TEST(DisagreementTest, IdenticalAndOpposite) {
  EXPECT_DOUBLE_EQ(DisagreementMeasure({1, 2, 3}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(DisagreementMeasure({1, 2, 3}, {2, 3, 1}), 1.0);
  EXPECT_DOUBLE_EQ(DisagreementMeasure({1, 2, 3, 4}, {1, 2, 0, 0}), 0.5);
}

TEST(EnsembleDisagreementTest, AveragesPairs) {
  const std::vector<std::vector<int>> preds = {{0, 0}, {0, 0}, {1, 1}};
  // Pairs: (0,1)=0, (0,2)=1, (1,2)=1 -> mean 2/3.
  EXPECT_NEAR(EnsembleDisagreement(preds), 2.0 / 3.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Bias-variance decomposition (paper Fig. 1)
// ---------------------------------------------------------------------------

TEST(BiasVarianceTest, PerfectAgreementWithTruthIsZeroZero) {
  const std::vector<std::vector<int>> preds = {{0, 1, 2}, {0, 1, 2}};
  const auto bv = DecomposeBiasVariance(preds, {0, 1, 2}, 3);
  EXPECT_DOUBLE_EQ(bv.bias, 0.0);
  EXPECT_DOUBLE_EQ(bv.variance, 0.0);
  EXPECT_DOUBLE_EQ(bv.mean_error, 0.0);
}

TEST(BiasVarianceTest, SystematicErrorIsPureBias) {
  // All members agree on the wrong class.
  const std::vector<std::vector<int>> preds = {{1, 1}, {1, 1}, {1, 1}};
  const auto bv = DecomposeBiasVariance(preds, {0, 0}, 2);
  EXPECT_DOUBLE_EQ(bv.bias, 1.0);
  EXPECT_DOUBLE_EQ(bv.variance, 0.0);
  EXPECT_DOUBLE_EQ(bv.mean_error, 1.0);
}

TEST(BiasVarianceTest, DisagreementOnCorrectMainIsUnbiasedVariance) {
  // Main prediction correct (2 of 3 vote for truth); one dissenter.
  const std::vector<std::vector<int>> preds = {{0}, {0}, {1}};
  const auto bv = DecomposeBiasVariance(preds, {0}, 2);
  EXPECT_DOUBLE_EQ(bv.bias, 0.0);
  EXPECT_NEAR(bv.variance_unbiased, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(bv.variance_biased, 0.0);
}

TEST(BiasVarianceTest, DisagreementOnWrongMainIsBiasedVariance) {
  // Main prediction wrong; the dissenter is actually correct.
  const std::vector<std::vector<int>> preds = {{1}, {1}, {0}};
  const auto bv = DecomposeBiasVariance(preds, {0}, 2);
  EXPECT_DOUBLE_EQ(bv.bias, 1.0);
  EXPECT_DOUBLE_EQ(bv.variance_unbiased, 0.0);
  EXPECT_NEAR(bv.variance_biased, 1.0 / 3.0, 1e-12);
}

TEST(BiasVarianceTest, MeanErrorDecomposition) {
  // Domingos: mean_error == bias + var_unbiased - var_biased for 0-1 loss
  // with modal main prediction (holds exactly in the two-class case).
  const std::vector<std::vector<int>> preds = {{0, 1, 1, 0},
                                               {1, 1, 0, 0},
                                               {0, 1, 1, 1}};
  const std::vector<int> labels = {0, 0, 1, 1};
  const auto bv = DecomposeBiasVariance(preds, labels, 2);
  EXPECT_NEAR(bv.mean_error,
              bv.bias + bv.variance_unbiased - bv.variance_biased, 1e-12);
}

TEST(BiasVarianceDeathTest, RaggedPredictionsAbort) {
  const std::vector<std::vector<int>> preds = {{0, 1}, {0}};
  EXPECT_DEATH(DecomposeBiasVariance(preds, {0, 1}, 2), "Check failed");
}

}  // namespace
}  // namespace edde
