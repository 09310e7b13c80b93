#include <gtest/gtest.h>

#include <signal.h>

#include <memory>

#include "core/beta_selector.h"
#include "nn/mlp.h"
#include "test_util.h"
#include "utils/crash.h"

namespace edde {
namespace {

using testing::MakeBlobs;

ModelFactory BlobFactory() {
  return [](uint64_t seed) {
    MlpConfig cfg;
    cfg.in_features = 6;
    cfg.hidden = {16};
    cfg.num_classes = 3;
    return std::make_unique<Mlp>(cfg, seed);
  };
}

BetaProbeConfig FastProbe() {
  BetaProbeConfig cfg;
  cfg.num_folds = 4;
  cfg.beta_grid = {1.0, 0.5, 0.0};
  cfg.teacher_epochs = 8;
  cfg.probe_epochs = 3;
  cfg.batch_size = 32;
  cfg.sgd.learning_rate = 0.1f;
  cfg.sgd.weight_decay = 0.0f;
  cfg.seed = 3;
  return cfg;
}

TEST(BetaSelectorTest, ProducesOnePointPerGridEntry) {
  const Dataset train = MakeBlobs(320, 6, 3, 1, /*spread=*/1.5f);
  const auto result = SelectBeta(train, BlobFactory(), FastProbe());
  ASSERT_EQ(result.points.size(), 3u);
  EXPECT_DOUBLE_EQ(result.points[0].beta, 1.0);
  EXPECT_DOUBLE_EQ(result.points[2].beta, 0.0);
}

TEST(BetaSelectorTest, SelectedBetaIsFromGrid) {
  const Dataset train = MakeBlobs(320, 6, 3, 2, /*spread=*/1.5f);
  const auto cfg = FastProbe();
  const auto result = SelectBeta(train, BlobFactory(), cfg);
  bool in_grid = false;
  for (double b : cfg.beta_grid) {
    if (b == result.selected_beta) in_grid = true;
  }
  EXPECT_TRUE(in_grid);
}

TEST(BetaSelectorTest, AccuraciesAreProbabilities) {
  const Dataset train = MakeBlobs(320, 6, 3, 4, /*spread=*/1.5f);
  const auto result = SelectBeta(train, BlobFactory(), FastProbe());
  for (const auto& p : result.points) {
    EXPECT_GE(p.acc_seen_fold, 0.0);
    EXPECT_LE(p.acc_seen_fold, 1.0);
    EXPECT_GE(p.acc_unseen_fold, 0.0);
    EXPECT_LE(p.acc_unseen_fold, 1.0);
  }
}

TEST(BetaSelectorTest, FullTransferShowsSeenFoldAdvantage) {
  // The paper's Fig. 5 premise: at β = 1 the student inherits the teacher's
  // specific knowledge of fold n−1, so the seen-fold accuracy should not be
  // materially *below* the unseen fold. (At small probe scales the gap is
  // noisy, so we assert the weak direction only.)
  const Dataset train = MakeBlobs(480, 6, 3, 5, /*spread=*/2.2f);
  BetaProbeConfig cfg = FastProbe();
  cfg.beta_grid = {1.0};
  cfg.probe_epochs = 2;  // early epochs, where the inherited knowledge shows
  const auto result = SelectBeta(train, BlobFactory(), cfg);
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_GT(result.points[0].acc_seen_fold,
            result.points[0].acc_unseen_fold - 0.08);
}

TEST(BetaSelectorTest, DeterministicForSameSeed) {
  const Dataset train = MakeBlobs(320, 6, 3, 6, /*spread=*/1.5f);
  const auto a = SelectBeta(train, BlobFactory(), FastProbe());
  const auto b = SelectBeta(train, BlobFactory(), FastProbe());
  EXPECT_DOUBLE_EQ(a.selected_beta, b.selected_beta);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.points[i].acc_seen_fold, b.points[i].acc_seen_fold);
  }
}

TEST(BetaSelectorDeathTest, NeedsThreeFolds) {
  const Dataset train = MakeBlobs(64, 6, 3, 7);
  BetaProbeConfig cfg = FastProbe();
  cfg.num_folds = 2;
  EXPECT_DEATH(SelectBeta(train, BlobFactory(), cfg), "folds");
}

// SIGINT/SIGTERM: the probe exits 128+signal at its safe points — after
// the teacher, and after the probe ParallelFor (never from a worker).
TEST(BetaSelectorDeathTest, ShutdownBeforeTeacherExitsGracefully) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Dataset train = MakeBlobs(64, 6, 3, 7);
  EXPECT_EXIT(
      {
        RequestShutdown(SIGTERM);
        (void)SelectBeta(train, BlobFactory(), FastProbe());
        _exit(7);
      },
      ::testing::ExitedWithCode(128 + SIGTERM), "");
}

TEST(BetaSelectorDeathTest, ShutdownDuringProbesExitsGracefully) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Dataset train = MakeBlobs(64, 6, 3, 7);
  // The signal lands while the students are built, after the teacher.
  int calls = 0;
  const ModelFactory base = BlobFactory();
  const ModelFactory factory = [&](uint64_t seed) {
    if (++calls == 2) RequestShutdown(SIGTERM);
    return base(seed);
  };
  EXPECT_EXIT(
      {
        (void)SelectBeta(train, factory, FastProbe());
        _exit(7);
      },
      ::testing::ExitedWithCode(128 + SIGTERM), "");
}

}  // namespace
}  // namespace edde
