#include <gtest/gtest.h>

#include "nn/densenet.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/resnet.h"
#include "nn/textcnn.h"
#include "test_util.h"

namespace edde {
namespace {

using testing::CheckModuleGradients;

Tensor RandomImages(int n, int c, int hw, uint64_t seed) {
  Rng rng(seed);
  Tensor t(Shape{n, c, hw, hw});
  t.FillNormal(&rng, 0.0f, 1.0f);
  return t;
}

Tensor RandomTokenIds(int n, int len, int vocab, uint64_t seed) {
  Rng rng(seed);
  Tensor t(Shape{n, len});
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    t.at(i) = static_cast<float>(rng.UniformInt(vocab));
  }
  return t;
}

// ---------------------------------------------------------------------------
// ResNet
// ---------------------------------------------------------------------------

TEST(ResNetTest, DepthMustBe6nPlus2) {
  ResNetConfig cfg;
  cfg.depth = 8;
  EXPECT_EQ(cfg.BlocksPerStage(), 1);
  cfg.depth = 32;
  EXPECT_EQ(cfg.BlocksPerStage(), 5);
  cfg.depth = 9;
  EXPECT_DEATH(cfg.BlocksPerStage(), "6n\\+2");
}

TEST(ResNetTest, ForwardShape) {
  ResNetConfig cfg;
  cfg.depth = 8;
  cfg.base_width = 4;
  cfg.num_classes = 7;
  ResNet net(cfg, 1);
  Tensor out = net.Forward(RandomImages(3, 3, 8, 2), /*training=*/true);
  EXPECT_EQ(out.shape(), Shape({3, 7}));
}

TEST(ResNetTest, PaperScaleResNet32IsConstructible) {
  ResNetConfig cfg;
  cfg.depth = 32;
  cfg.base_width = 16;
  cfg.num_classes = 100;
  ResNet net(cfg, 1);
  // 3 stages x 5 blocks, widths 16/32/64 — the paper's CIFAR ResNet-32 has
  // ~0.47M parameters.
  const int64_t params = net.NumParameters();
  EXPECT_GT(params, 400000);
  EXPECT_LT(params, 550000);
  Tensor out = net.Forward(RandomImages(1, 3, 32, 3), false);
  EXPECT_EQ(out.shape(), Shape({1, 100}));
}

TEST(ResNetTest, DirectionalDerivativeMatchesBackward) {
  ResNetConfig cfg;
  cfg.depth = 8;
  cfg.base_width = 2;
  cfg.num_classes = 3;
  ResNet net(cfg, 5);
  Rng rng(6);
  const auto result = testing::CheckDirectionalDerivative(
      &net, RandomImages(2, 3, 8, 7), /*training=*/true, &rng);
  EXPECT_LT(result.rel_error, 0.02)
      << "analytic=" << result.analytic << " numeric=" << result.numeric;
}

TEST(ResNetTest, BackwardReturnsNoInputGradient) {
  ResNetConfig cfg;
  cfg.depth = 8;
  cfg.base_width = 2;
  cfg.num_classes = 3;
  ResNet net(cfg, 5);
  const Tensor out = net.Forward(RandomImages(2, 3, 6, 8), /*training=*/true);
  EXPECT_TRUE(net.Backward(Tensor(out.shape(), 1.0f)).empty());
}

TEST(ResNetTest, TrainingStepReducesLoss) {
  ResNetConfig cfg;
  cfg.depth = 8;
  cfg.base_width = 4;
  cfg.num_classes = 4;
  ResNet net(cfg, 11);
  Tensor x = RandomImages(16, 3, 8, 12);
  std::vector<int> y(16);
  for (int i = 0; i < 16; ++i) y[static_cast<size_t>(i)] = i % 4;

  double first_loss = 0.0, last_loss = 0.0;
  const float lr = 0.05f;
  for (int step = 0; step < 30; ++step) {
    Tensor logits = net.Forward(x, true);
    LossResult loss = SoftmaxCrossEntropyLoss(logits, y);
    if (step == 0) first_loss = loss.loss;
    last_loss = loss.loss;
    net.Backward(loss.grad_logits);
    for (Parameter* p : net.Parameters()) {
      if (!p->trainable) continue;
      for (int64_t i = 0; i < p->value.num_elements(); ++i) {
        p->value.data()[i] -= lr * p->grad.data()[i];
      }
    }
    net.ZeroGrad();
  }
  EXPECT_LT(last_loss, first_loss * 0.5);
}

TEST(ResNetTest, ParameterOrderIsDepthFirst) {
  ResNetConfig cfg;
  cfg.depth = 8;
  cfg.base_width = 4;
  cfg.num_classes = 5;
  ResNet net(cfg, 13);
  auto params = net.Parameters();
  ASSERT_GE(params.size(), 4u);
  // First block is the stem conv (3 input channels); last is the classifier
  // bias. This ordering is what β-transfer relies on.
  EXPECT_EQ(params.front()->value.shape().dim(1), 3);
  EXPECT_EQ(params.back()->value.shape(), Shape({5}));
}

// ---------------------------------------------------------------------------
// DenseNet
// ---------------------------------------------------------------------------

TEST(DenseNetTest, DepthMustBe3mPlus4) {
  DenseNetConfig cfg;
  cfg.depth = 13;
  EXPECT_EQ(cfg.LayersPerBlock(), 3);
  cfg.depth = 40;
  EXPECT_EQ(cfg.LayersPerBlock(), 12);
  cfg.depth = 14;
  EXPECT_DEATH(cfg.LayersPerBlock(), "3m\\+4");
}

TEST(DenseNetTest, ForwardShape) {
  DenseNetConfig cfg;
  cfg.depth = 13;
  cfg.growth = 4;
  cfg.num_classes = 6;
  DenseNet net(cfg, 1);
  Tensor out = net.Forward(RandomImages(2, 3, 8, 2), true);
  EXPECT_EQ(out.shape(), Shape({2, 6}));
}

TEST(DenseNetTest, PaperScaleDenseNet40IsConstructible) {
  DenseNetConfig cfg;
  cfg.depth = 40;
  cfg.growth = 12;
  cfg.num_classes = 100;
  DenseNet net(cfg, 1);
  // The paper's DenseNet-40 (k=12) has ~1.0M parameters.
  const int64_t params = net.NumParameters();
  EXPECT_GT(params, 800000);
  EXPECT_LT(params, 1300000);
}

TEST(DenseNetTest, DirectionalDerivativeMatchesBackward) {
  DenseNetConfig cfg;
  cfg.depth = 13;
  cfg.growth = 2;
  cfg.num_classes = 3;
  DenseNet net(cfg, 3);
  Rng rng(4);
  const auto result = testing::CheckDirectionalDerivative(
      &net, RandomImages(2, 3, 8, 5), /*training=*/true, &rng);
  EXPECT_LT(result.rel_error, 0.02)
      << "analytic=" << result.analytic << " numeric=" << result.numeric;
}

TEST(DenseNetTest, BackwardReturnsNoInputGradient) {
  DenseNetConfig cfg;
  cfg.depth = 13;
  cfg.growth = 2;
  cfg.num_classes = 3;
  DenseNet net(cfg, 3);
  const Tensor out = net.Forward(RandomImages(2, 3, 8, 9), /*training=*/true);
  EXPECT_TRUE(net.Backward(Tensor(out.shape(), 1.0f)).empty());
}

TEST(DenseNetTest, ChannelsGrowByGrowthRate) {
  // depth 13 => 3 layers per block; stem 2k = 8 channels with growth 4.
  // After block 1: 8 + 3*4 = 20 channels, etc. Total parameter order sanity.
  DenseNetConfig cfg;
  cfg.depth = 13;
  cfg.growth = 4;
  cfg.num_classes = 2;
  DenseNet net(cfg, 7);
  auto params = net.Parameters();
  EXPECT_EQ(params.front()->value.shape().dim(1), 3);  // stem input channels
  // Classifier input should be stem(8) + 9 layers * growth(4) = 44.
  EXPECT_EQ(params[params.size() - 2]->value.shape().dim(1), 44);
}

// ---------------------------------------------------------------------------
// TextCNN
// ---------------------------------------------------------------------------

TextCnnConfig SmallTextCnn() {
  TextCnnConfig cfg;
  cfg.vocab_size = 50;
  cfg.embed_dim = 6;
  cfg.seq_len = 12;
  cfg.kernel_sizes = {2, 3};
  cfg.filters_per_size = 4;
  cfg.dropout_rate = 0.0f;  // deterministic for grad checks
  cfg.num_classes = 2;
  return cfg;
}

TEST(TextCnnTest, ForwardShape) {
  TextCnn net(SmallTextCnn(), 1);
  Tensor out = net.Forward(RandomTokenIds(3, 12, 50, 2), true);
  EXPECT_EQ(out.shape(), Shape({3, 2}));
}

TEST(TextCnnTest, DirectionalDerivativeMatchesBackward) {
  TextCnn net(SmallTextCnn(), 3);
  Rng rng(4);
  const auto result = testing::CheckDirectionalDerivative(
      &net, RandomTokenIds(2, 12, 50, 5), /*training=*/true, &rng);
  EXPECT_LT(result.rel_error, 0.02)
      << "analytic=" << result.analytic << " numeric=" << result.numeric;
}

TEST(TextCnnTest, KernelLargerThanSequenceAborts) {
  TextCnnConfig cfg = SmallTextCnn();
  cfg.seq_len = 2;
  cfg.kernel_sizes = {3};
  EXPECT_DEATH(TextCnn(cfg, 1), "kernel larger");
}

TEST(TextCnnTest, ParameterCountMatchesArchitecture) {
  TextCnnConfig cfg = SmallTextCnn();
  TextCnn net(cfg, 9);
  const int64_t embed = 50 * 6;
  const int64_t conv2 = 4 * 6 * 2 + 4;
  const int64_t conv3 = 4 * 6 * 3 + 4;
  const int64_t dense = 8 * 2 + 2;
  EXPECT_EQ(net.NumParameters(), embed + conv2 + conv3 + dense);
}

// ---------------------------------------------------------------------------
// MLP
// ---------------------------------------------------------------------------

TEST(MlpTest, ForwardShapeAndGradients) {
  MlpConfig cfg;
  cfg.in_features = 5;
  cfg.hidden = {8, 6};
  cfg.num_classes = 3;
  Mlp net(cfg, 1);
  Rng rng(2);
  Tensor input(Shape{4, 5});
  input.FillNormal(&rng, 0.0f, 1.0f);
  EXPECT_EQ(net.Forward(input, true).shape(), Shape({4, 3}));
  const auto result =
      CheckModuleGradients(&net, input, /*training=*/true, &rng);
  EXPECT_LT(result.max_rel_error, testing::kGradCheckTolerance);
}

TEST(MlpTest, DifferentSeedsGiveDifferentWeights) {
  MlpConfig cfg;
  Mlp a(cfg, 1), b(cfg, 2);
  float diff = 0.0f;
  auto pa = a.Parameters(), pb = b.Parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    for (int64_t j = 0; j < pa[i]->value.num_elements(); ++j) {
      diff += std::fabs(pa[i]->value.data()[j] - pb[i]->value.data()[j]);
    }
  }
  EXPECT_GT(diff, 1.0f);
}

}  // namespace
}  // namespace edde
