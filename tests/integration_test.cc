/// End-to-end integration tests: full pipelines across data generation,
/// model families, ensemble methods and serialization — small-scale versions
/// of the workflows the benchmark harnesses run.

#include <gtest/gtest.h>

#include <memory>

#include "core/beta_selector.h"
#include "core/edde.h"
#include "data/synthetic_image.h"
#include "data/synthetic_text.h"
#include "ensemble/ensemble_io.h"
#include "ensemble/snapshot.h"
#include "metrics/bias_variance.h"
#include "metrics/diversity.h"
#include "metrics/metrics.h"
#include "nn/resnet.h"
#include "nn/textcnn.h"

namespace edde {
namespace {

TrainTestSplit SmallImageData(uint64_t seed = 42) {
  SyntheticImageConfig cfg;
  cfg.num_classes = 5;
  cfg.train_size = 400;
  cfg.test_size = 200;
  cfg.noise = 0.55f;
  cfg.seed = seed;
  return MakeSyntheticImageData(cfg);
}

ModelFactory SmallResNetFactory(int num_classes = 5) {
  return [num_classes](uint64_t seed) {
    ResNetConfig cfg;
    cfg.depth = 8;
    cfg.base_width = 3;
    cfg.num_classes = num_classes;
    return std::make_unique<ResNet>(cfg, seed);
  };
}

MethodConfig SmallBudget() {
  MethodConfig mc;
  mc.num_members = 3;
  mc.epochs_per_member = 5;
  mc.batch_size = 64;
  mc.sgd.learning_rate = 0.1f;
  mc.augment = true;
  mc.seed = 7;
  return mc;
}

TEST(IntegrationTest, EddeOnSyntheticImagesEndToEnd) {
  const auto data = SmallImageData();
  EddeOptions eo;
  eo.gamma = 0.1f;
  eo.beta = 0.7;
  eo.first_member_epochs = 8;
  EddeMethod method(SmallBudget(), eo);
  EnsembleModel model = method.Train(data.train, SmallResNetFactory());
  const double acc = model.EvaluateAccuracy(data.test);
  EXPECT_GT(acc, 0.6);  // chance is 0.2
  // Ensemble combination must not materially hurt versus the mean member
  // (a small tolerance absorbs noise at this tiny training scale).
  EXPECT_GE(acc, MeanMemberAccuracy(model.MemberProbs(data.test),
                                    data.test.labels()) -
                     0.04);
}

TEST(IntegrationTest, SnapshotOnSyntheticImagesEndToEnd) {
  const auto data = SmallImageData(43);
  SnapshotEnsemble method(SmallBudget());
  EnsembleModel model = method.Train(data.train, SmallResNetFactory());
  EXPECT_EQ(model.size(), 3);
  EXPECT_GT(model.EvaluateAccuracy(data.test), 0.6);
}

TEST(IntegrationTest, TextCnnLearnsSyntheticSentiment) {
  SyntheticTextConfig cfg;
  cfg.train_size = 1024;
  cfg.test_size = 256;
  cfg.seed = 5;
  const auto data = MakeSyntheticTextData(cfg);

  TextCnnConfig net;
  net.vocab_size = cfg.vocab_size;
  net.embed_dim = 8;
  net.seq_len = cfg.seq_len;
  net.kernel_sizes = {2, 3};
  net.filters_per_size = 6;
  net.dropout_rate = 0.3f;
  TextCnn model(net, 1);

  TrainConfig tc;
  tc.epochs = 15;
  tc.batch_size = 32;
  tc.sgd.learning_rate = 0.1f;
  tc.sgd.weight_decay = 0.0f;
  tc.seed = 2;
  TrainModel(&model, data.train, tc, TrainContext{});
  EXPECT_GT(EvaluateAccuracy(&model, data.test), 0.72);  // chance 0.5
}

TEST(IntegrationTest, BetaProbeOnImagesSelectsReasonableBeta) {
  const auto data = SmallImageData(44);
  BetaProbeConfig cfg;
  cfg.num_folds = 4;
  cfg.beta_grid = {1.0, 0.6, 0.2};
  cfg.teacher_epochs = 5;
  cfg.probe_epochs = 2;
  cfg.batch_size = 64;
  cfg.sgd.learning_rate = 0.1f;
  cfg.seed = 6;
  const auto result = SelectBeta(data.train, SmallResNetFactory(), cfg);
  EXPECT_GE(result.selected_beta, 0.0);
  EXPECT_LE(result.selected_beta, 1.0);
  EXPECT_EQ(result.points.size(), 3u);
}

TEST(IntegrationTest, EnsembleMembersSurviveCheckpointRoundTrip) {
  const auto data = SmallImageData(45);
  EddeOptions eo;
  eo.gamma = 0.1f;
  MethodConfig mc = SmallBudget();
  mc.num_members = 2;
  EddeMethod method(mc, eo);
  EnsembleModel model = method.Train(data.train, SmallResNetFactory());

  const std::string path = ::testing::TempDir() + "/members.edde";
  ASSERT_TRUE(SaveEnsemble(model, path).ok());
  Result<EnsembleModel> restored = LoadEnsemble(path, SmallResNetFactory());
  ASSERT_TRUE(restored.ok()) << restored.status();
  for (int64_t t = 0; t < model.size(); ++t) {
    EXPECT_EQ(PredictLabels(model.member(t), data.test),
              PredictLabels(restored.ValueOrDie().member(t), data.test))
        << "member " << t;
  }
}

TEST(IntegrationTest, BiasVarianceOfEnsembleMembers) {
  const auto data = SmallImageData(46);
  SnapshotEnsemble method(SmallBudget());
  EnsembleModel model = method.Train(data.train, SmallResNetFactory());
  std::vector<std::vector<int>> preds;
  for (int64_t t = 0; t < model.size(); ++t) {
    preds.push_back(PredictLabels(model.member(t), data.test));
  }
  const auto bv =
      DecomposeBiasVariance(preds, data.test.labels(), data.test.num_classes());
  EXPECT_GE(bv.bias, 0.0);
  EXPECT_LE(bv.bias, 1.0);
  EXPECT_GE(bv.variance, 0.0);
  // Members were warm-started from each other: variance should be modest.
  EXPECT_LT(bv.variance, 0.5);
}

TEST(IntegrationTest, DiversityMeasureSeparatesWarmAndColdStarts) {
  const auto data = SmallImageData(47);
  MethodConfig mc = SmallBudget();
  mc.num_members = 3;

  EddeOptions cold;
  cold.transfer_mode = EddeOptions::TransferMode::kNone;
  cold.use_diversity_loss = false;
  EddeOptions warm;
  warm.transfer_mode = EddeOptions::TransferMode::kAll;
  warm.use_diversity_loss = false;

  EddeMethod cold_method(mc, cold), warm_method(mc, warm);
  const double div_cold = EnsembleDiversity(
      cold_method.Train(data.train, SmallResNetFactory())
          .MemberProbs(data.test));
  const double div_warm = EnsembleDiversity(
      warm_method.Train(data.train, SmallResNetFactory())
          .MemberProbs(data.test));
  EXPECT_GT(div_cold, div_warm);
}

}  // namespace
}  // namespace edde
