#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/conv1d.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/embedding.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "test_util.h"

namespace edde {
namespace {

using testing::CheckModuleGradients;
using testing::kGradCheckTolerance;

Tensor RandomInput(Shape shape, uint64_t seed, float stddev = 1.0f) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  t.FillNormal(&rng, 0.0f, stddev);
  return t;
}

// ---------------------------------------------------------------------------
// Finite-difference gradient checks, one per layer type
// ---------------------------------------------------------------------------

TEST(DenseTest, GradientsMatchFiniteDifferences) {
  Rng rng(1);
  Dense layer(6, 4, &rng);
  const auto result = CheckModuleGradients(
      &layer, RandomInput(Shape{3, 6}, 2), /*training=*/true, &rng);
  EXPECT_LT(result.max_rel_error, kGradCheckTolerance);
  EXPECT_GT(result.checked, 0);
}

TEST(Conv2dTest, GradientsMatchFiniteDifferences) {
  Rng rng(3);
  Conv2d layer(2, 3, /*kernel=*/3, /*stride=*/1, /*padding=*/1,
               /*use_bias=*/true, &rng);
  const auto result = CheckModuleGradients(
      &layer, RandomInput(Shape{2, 2, 5, 5}, 4), /*training=*/true, &rng);
  EXPECT_LT(result.max_rel_error, kGradCheckTolerance);
}

TEST(Conv2dTest, StridedGradientsMatchFiniteDifferences) {
  Rng rng(5);
  Conv2d layer(2, 2, /*kernel=*/3, /*stride=*/2, /*padding=*/1,
               /*use_bias=*/false, &rng);
  const auto result = CheckModuleGradients(
      &layer, RandomInput(Shape{2, 2, 6, 6}, 6), /*training=*/true, &rng);
  EXPECT_LT(result.max_rel_error, kGradCheckTolerance);
}

TEST(Conv1dTest, GradientsMatchFiniteDifferences) {
  Rng rng(7);
  Conv1d layer(3, 4, /*kernel=*/3, /*use_bias=*/true, &rng);
  const auto result = CheckModuleGradients(
      &layer, RandomInput(Shape{2, 3, 8}, 8), /*training=*/true, &rng);
  EXPECT_LT(result.max_rel_error, kGradCheckTolerance);
}

TEST(BatchNormTest, TrainingGradientsMatchFiniteDifferences) {
  Rng rng(9);
  BatchNorm layer(3);
  const auto result = CheckModuleGradients(
      &layer, RandomInput(Shape{4, 3, 3, 3}, 10), /*training=*/true, &rng,
      /*epsilon=*/1e-3);
  EXPECT_LT(result.max_rel_error, 5e-2);  // BN normalization amplifies noise
}

TEST(BatchNormTest, DenseRankTwoGradients) {
  Rng rng(11);
  BatchNorm layer(5);
  const auto result = CheckModuleGradients(
      &layer, RandomInput(Shape{8, 5}, 12), /*training=*/true, &rng);
  EXPECT_LT(result.max_rel_error, 5e-2);
}

TEST(ReLUTest, GradientsMatchFiniteDifferences) {
  Rng rng(13);
  ReLU layer;
  // Offset the input away from the kink at 0.
  Tensor input = RandomInput(Shape{4, 6}, 14);
  input.Apply([](float v) { return v + (v >= 0 ? 0.5f : -0.5f); });
  const auto result =
      CheckModuleGradients(&layer, input, /*training=*/true, &rng);
  EXPECT_LT(result.max_rel_error, kGradCheckTolerance);
}

TEST(GlobalAvgPoolLayerTest, GradientsMatchFiniteDifferences) {
  Rng rng(19);
  GlobalAvgPool2d layer;
  const auto result = CheckModuleGradients(
      &layer, RandomInput(Shape{2, 3, 4, 4}, 20), /*training=*/true, &rng);
  EXPECT_LT(result.max_rel_error, kGradCheckTolerance);
}

TEST(SequentialTest, ComposedGradientsMatchFiniteDifferences) {
  Rng rng(21);
  Sequential seq;
  seq.Add(std::make_unique<Dense>(6, 8, &rng));
  seq.Add(std::make_unique<ReLU>());
  seq.Add(std::make_unique<Dense>(8, 3, &rng));
  const auto result = CheckModuleGradients(
      &seq, RandomInput(Shape{4, 6}, 22), /*training=*/true, &rng);
  EXPECT_LT(result.max_rel_error, kGradCheckTolerance);
}

// ---------------------------------------------------------------------------
// Behavioural layer tests
// ---------------------------------------------------------------------------

TEST(DenseTest, OutputShapeAndBias) {
  Rng rng(23);
  Dense layer(3, 2, &rng);
  Tensor out = layer.Forward(Tensor(Shape{5, 3}, 0.0f), true);
  EXPECT_EQ(out.shape(), Shape({5, 2}));
  // Zero input -> output equals bias (zero-initialized).
  EXPECT_DOUBLE_EQ(out.Sum(), 0.0);
}

TEST(DenseTest, ParameterCount) {
  Rng rng(24);
  Dense layer(10, 7, &rng);
  EXPECT_EQ(layer.NumParameters(), 10 * 7 + 7);
}

TEST(BatchNormTest, NormalizesBatchInTraining) {
  Rng rng(25);
  BatchNorm layer(2);
  Tensor input = RandomInput(Shape{64, 2}, 26, 5.0f);
  input.Apply([](float v) { return v + 3.0f; });
  Tensor out = layer.Forward(input, /*training=*/true);
  // gamma=1, beta=0: per-feature output should be ~N(0,1).
  for (int64_t c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    for (int64_t i = 0; i < 64; ++i) mean += out.at(i, c);
    mean /= 64;
    for (int64_t i = 0; i < 64; ++i) {
      var += (out.at(i, c) - mean) * (out.at(i, c) - mean);
    }
    var /= 64;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, EvalUsesRunningStatistics) {
  Rng rng(27);
  BatchNorm layer(1);
  // Feed many training batches with mean 4, std 2.
  for (int i = 0; i < 200; ++i) {
    Tensor batch = RandomInput(Shape{32, 1}, 1000 + i, 2.0f);
    batch.Apply([](float v) { return v + 4.0f; });
    layer.Forward(batch, /*training=*/true);
  }
  // In eval, an input at the running mean maps to ~0.
  Tensor probe(Shape{1, 1}, 4.0f);
  Tensor out = layer.Forward(probe, /*training=*/false);
  EXPECT_NEAR(out.at(0), 0.0f, 0.2f);
}

TEST(ReLUTest, ClampsNegatives) {
  ReLU layer;
  Tensor input(Shape{4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  Tensor out = layer.Forward(input, true);
  EXPECT_FLOAT_EQ(out.at(0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(2), 2.0f);
  EXPECT_FLOAT_EQ(out.at(3), 0.0f);
}

TEST(DropoutTest, EvalIsIdentity) {
  Dropout layer(0.5f);
  Tensor input(Shape{8}, 3.0f);
  Tensor out = layer.Forward(input, /*tape=*/nullptr);
  for (int64_t i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(out.at(i), 3.0f);
}

TEST(DropoutTest, TrainingZeroesAboutRateAndRescales) {
  Dropout layer(0.25f);
  Tape tape;
  tape.Reset(7);
  Tensor input(Shape{4000}, 1.0f);
  Tensor out = layer.Forward(input, &tape);
  int64_t zeros = 0;
  for (int64_t i = 0; i < out.num_elements(); ++i) {
    if (out.at(i) == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(out.at(i), 1.0f / 0.75f, 1e-5);
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 4000.0, 0.25, 0.03);
  // Inverted dropout keeps the expectation.
  EXPECT_NEAR(out.Mean(), 1.0, 0.05);
}

/// One training step seeded with `step_seed` on ones: its mask times 1/keep.
std::vector<float> MaskOfStep(Dropout* layer, uint64_t step_seed) {
  Tape tape;
  tape.Reset(step_seed);
  const Tensor out = layer->Forward(Tensor(Shape{256}, 1.0f), &tape);
  return std::vector<float>(out.data(), out.data() + out.num_elements());
}

TEST(DropoutTest, SameStepSeedGivesSameMask) {
  // Masks come from the tape, not the layer: two layers, or one layer
  // before and after other steps, draw one mask for one step seed.
  Dropout a(0.5f);
  Dropout b(0.5f);
  const std::vector<float> first = MaskOfStep(&a, 41);
  (void)MaskOfStep(&a, 42);
  EXPECT_EQ(MaskOfStep(&a, 41), first);
  EXPECT_EQ(MaskOfStep(&b, 41), first);
}

TEST(DropoutTest, AnotherStepGivesAnotherMask) {
  Dropout layer(0.5f);
  EXPECT_NE(MaskOfStep(&layer, 41), MaskOfStep(&layer, 42));
}

TEST(DropoutTest, BackwardAppliesTheForwardMask) {
  Dropout layer(0.5f);
  Tape tape;
  tape.Reset(3);
  Tensor input(Shape{64}, 1.0f);
  Tensor out = layer.Forward(input, &tape);
  // Draws after the Forward must not reach its Backward.
  (void)tape.masks()->NextU64();
  Tensor grad = layer.Backward(Tensor(Shape{64}, 1.0f), &tape);
  EXPECT_TRUE(tape.empty());
  for (int64_t i = 0; i < 64; ++i) {
    EXPECT_FLOAT_EQ(grad.at(i), out.at(i));  // both are mask * scale
  }
}

TEST(EmbeddingTest, LooksUpRows) {
  Rng rng(29);
  Embedding layer(10, 4, &rng);
  Tensor ids(Shape{2, 3}, {0.0f, 1.0f, 2.0f, 9.0f, 9.0f, 0.0f});
  Tensor out = layer.Forward(ids, true);
  ASSERT_EQ(out.shape(), Shape({2, 4, 3}));
  // Channel-major: out[n][e][t] == table[id][e].
  Parameter* table = layer.Parameters()[0];
  for (int64_t e = 0; e < 4; ++e) {
    EXPECT_FLOAT_EQ(out.at((0 * 4 + e) * 3 + 1), table->value.at(1, e));
    EXPECT_FLOAT_EQ(out.at((1 * 4 + e) * 3 + 0), table->value.at(9, e));
  }
}

TEST(EmbeddingTest, BackwardAccumulatesPerToken) {
  Rng rng(31);
  Embedding layer(5, 2, &rng);
  Tensor ids(Shape{1, 3}, {2.0f, 2.0f, 4.0f});
  layer.Forward(ids, true);
  Tensor grad_out(Shape{1, 2, 3}, 1.0f);
  layer.Backward(grad_out);
  Parameter* table = layer.Parameters()[0];
  // Token 2 appears twice -> gradient 2 per embedding dim; token 4 once.
  EXPECT_FLOAT_EQ(table->grad.at(2, 0), 2.0f);
  EXPECT_FLOAT_EQ(table->grad.at(4, 1), 1.0f);
  EXPECT_FLOAT_EQ(table->grad.at(0, 0), 0.0f);
}

TEST(EmbeddingDeathTest, OutOfVocabAborts) {
  Rng rng(33);
  Embedding layer(5, 2, &rng);
  Tensor ids(Shape{1, 1}, {7.0f});
  EXPECT_DEATH(layer.Forward(ids, true), "Check failed");
}

TEST(ModuleTest, ZeroGradClearsAccumulation) {
  Rng rng(35);
  Dense layer(3, 2, &rng);
  layer.Forward(RandomInput(Shape{4, 3}, 36), true);
  layer.Backward(RandomInput(Shape{4, 2}, 37));
  bool any_nonzero = false;
  for (Parameter* p : layer.Parameters()) {
    if (p->grad.AbsMax() > 0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
  layer.ZeroGrad();
  for (Parameter* p : layer.Parameters()) {
    EXPECT_FLOAT_EQ(p->grad.AbsMax(), 0.0f);
  }
}

TEST(FlattenTest, RoundTripsShape) {
  Flatten layer;
  Tensor input(Shape{2, 3, 4, 5});
  Tensor out = layer.Forward(input, true);
  EXPECT_EQ(out.shape(), Shape({2, 60}));
  Tensor grad = layer.Backward(Tensor(Shape{2, 60}, 1.0f));
  EXPECT_EQ(grad.shape(), input.shape());
}

}  // namespace
}  // namespace edde
