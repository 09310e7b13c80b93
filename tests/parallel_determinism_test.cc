#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/beta_selector.h"
#include "core/edde.h"
#include "ensemble/bagging.h"
#include "ensemble/trainer.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/resnet.h"
#include "nn/tape.h"
#include "nn/textcnn.h"
#include "optim/sgd.h"
#include "tensor/ops.h"
#include "test_util.h"
#include "utils/metrics.h"
#include "utils/threadpool.h"
#include "utils/trace.h"

namespace edde {
namespace {

using testing::MakeBlobsSplit;

// The determinism contract of the parallel substrate (DESIGN.md): the same
// seeds must produce the same ensemble regardless of the thread count. All
// RNG draws happen serially in a fixed order, members run in parallel but
// join in slot order, and each member's kernels run serially, so 1 thread
// and 4 threads must match bit for bit — not merely approximately.

struct Fixture {
  testing::BlobSplit data = MakeBlobsSplit(256, 128, 6, 3, 1, /*spread=*/1.5f);
  ModelFactory factory = [](uint64_t seed) {
    MlpConfig cfg;
    cfg.in_features = 6;
    cfg.hidden = {12};
    cfg.num_classes = 3;
    return std::make_unique<Mlp>(cfg, seed);
  };
  MethodConfig config = [] {
    MethodConfig mc;
    mc.num_members = 3;
    mc.epochs_per_member = 4;
    mc.batch_size = 32;
    mc.sgd.learning_rate = 0.1f;
    mc.seed = 11;
    return mc;
  }();
};

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  ~ParallelDeterminismTest() override { SetNumThreads(0); }
};

void ExpectIdenticalProbs(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.num_elements(), b.num_elements());
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "probability " << i << " differs";
  }
}

TEST_F(ParallelDeterminismTest, EddeEnsembleIdenticalAcrossThreadCounts) {
  Fixture fx;
  EddeOptions options;
  options.gamma = 0.1f;
  options.beta = 0.7;

  SetNumThreads(1);
  EnsembleModel serial = EddeMethod(fx.config, options).Train(
      fx.data.train, fx.factory);
  const double acc1 = serial.EvaluateAccuracy(fx.data.test);
  const Tensor probs1 = serial.PredictProbs(fx.data.test);

  SetNumThreads(4);
  EnsembleModel threaded = EddeMethod(fx.config, options).Train(
      fx.data.train, fx.factory);
  const double acc4 = threaded.EvaluateAccuracy(fx.data.test);
  const Tensor probs4 = threaded.PredictProbs(fx.data.test);

  EXPECT_DOUBLE_EQ(acc1, acc4);
  ExpectIdenticalProbs(probs1, probs4);
}

TEST_F(ParallelDeterminismTest, BaggingEnsembleIdenticalAcrossThreadCounts) {
  Fixture fx;

  SetNumThreads(1);
  EnsembleModel serial = Bagging(fx.config).Train(fx.data.train, fx.factory);
  const double acc1 = serial.EvaluateAccuracy(fx.data.test);
  const Tensor probs1 = serial.PredictProbs(fx.data.test);

  SetNumThreads(4);
  EnsembleModel threaded = Bagging(fx.config).Train(fx.data.train, fx.factory);
  const double acc4 = threaded.EvaluateAccuracy(fx.data.test);
  const Tensor probs4 = threaded.PredictProbs(fx.data.test);

  EXPECT_DOUBLE_EQ(acc1, acc4);
  ExpectIdenticalProbs(probs1, probs4);
}

void ExpectIdenticalParameters(Module* a, Module* b) {
  const auto pa = a->Parameters(), pb = b->Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->value.num_elements(), pb[i]->value.num_elements());
    for (int64_t j = 0; j < pa[i]->value.num_elements(); ++j) {
      ASSERT_EQ(pa[i]->value.data()[j], pb[i]->value.data()[j])
          << "parameter " << i << " element " << j << " differs";
    }
  }
}

TEST_F(ParallelDeterminismTest, BaggingCheckpointingChangesNothingAtFourThreads) {
  // Members complete concurrently and, in slot order, join the ensemble
  // and end their rounds — curve point, generation write, inflight removal
  // — under Bagging's mutex while other workers train into their own
  // inflight files. The TSan job runs this binary.
  Fixture fx;
  SetNumThreads(4);
  std::vector<CurvePoint> curve_without;
  EnsembleModel without = Bagging(fx.config).Train(
      fx.data.train, fx.factory, EvalCurve{&fx.data.test, &curve_without});
  MethodConfig checkpointed = fx.config;
  checkpointed.checkpoint.dir =
      ::testing::TempDir() + "/determinism_bagging_ckpt";
  checkpointed.checkpoint.resume = false;  // train, never restore
  std::vector<CurvePoint> curve_with;
  EnsembleModel with = Bagging(checkpointed).Train(
      fx.data.train, fx.factory, EvalCurve{&fx.data.test, &curve_with});

  ASSERT_EQ(curve_with.size(), static_cast<size_t>(fx.config.num_members));
  EXPECT_EQ(curve_with, curve_without);
  ASSERT_EQ(with.size(), without.size());
  EXPECT_EQ(with.alphas(), without.alphas());
  for (int64_t t = 0; t < with.size(); ++t) {
    ExpectIdenticalParameters(with.member(t), without.member(t));
  }
}

TEST_F(ParallelDeterminismTest, RepeatedTrainingIsBitIdentical) {
  // Same factory, config and seed twice in the same process: every
  // parameter must match bit for bit — a regression gate for any hidden
  // global state (telemetry included) leaking into training.
  Fixture fx;
  TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 32;
  tc.sgd.learning_rate = 0.1f;
  tc.seed = 21;

  std::unique_ptr<Module> a = fx.factory(77);
  TrainModel(a.get(), fx.data.train, tc, TrainContext{});
  std::unique_ptr<Module> b = fx.factory(77);
  TrainModel(b.get(), fx.data.train, tc, TrainContext{});
  ExpectIdenticalParameters(a.get(), b.get());
}

TEST_F(ParallelDeterminismTest, MetricsSinkDoesNotPerturbTraining) {
  // ISSUE acceptance criterion: telemetry must never draw RNG or reorder
  // arithmetic, so training with the JSONL sink enabled is bit-identical
  // to training with it off.
  Fixture fx;
  TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 32;
  tc.sgd.learning_rate = 0.1f;
  tc.seed = 22;

  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.SetSinkPath("");
  std::vector<double> losses_off;
  std::unique_ptr<Module> off = fx.factory(78);
  TrainModel(off.get(), fx.data.train, tc, TrainContext{},
             [&](const EpochStats& s) { losses_off.push_back(s.mean_loss); });

  const std::string sink = ::testing::TempDir() + "/determinism_metrics.jsonl";
  reg.SetSinkPath(sink);
  std::vector<double> losses_on;
  std::unique_ptr<Module> on = fx.factory(78);
  TrainModel(on.get(), fx.data.train, tc, TrainContext{},
             [&](const EpochStats& s) { losses_on.push_back(s.mean_loss); });
  reg.SetSinkPath("");

  ASSERT_EQ(losses_off.size(), losses_on.size());
  for (size_t i = 0; i < losses_off.size(); ++i) {
    EXPECT_EQ(losses_off[i], losses_on[i]) << "epoch " << i;
  }
  ExpectIdenticalParameters(off.get(), on.get());
}

TEST_F(ParallelDeterminismTest, MetricsSinkDoesNotPerturbEddeTraining) {
  // Same gate at the ensemble level: EDDE's round-stats collection
  // (PredictProbs history + Eq. 7 recomputation) is read-only observation.
  Fixture fx;
  EddeOptions options;
  options.gamma = 0.1f;
  options.beta = 0.7;

  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.SetSinkPath("");
  EnsembleModel off = EddeMethod(fx.config, options).Train(
      fx.data.train, fx.factory);
  const Tensor probs_off = off.PredictProbs(fx.data.test);

  const std::string sink = ::testing::TempDir() + "/determinism_edde.jsonl";
  reg.SetSinkPath(sink);
  EnsembleModel on = EddeMethod(fx.config, options).Train(
      fx.data.train, fx.factory);
  reg.SetSinkPath("");
  const Tensor probs_on = on.PredictProbs(fx.data.test);

  ExpectIdenticalProbs(probs_off, probs_on);
}

TEST_F(ParallelDeterminismTest, TraceSinkDoesNotPerturbTraining) {
  // PR 3 acceptance criterion: span tracing never touches any RNG and
  // never reorders arithmetic, so training with --trace_path configured is
  // bit-identical to training with tracing off.
  Fixture fx;
  EddeOptions options;
  options.gamma = 0.1f;
  options.beta = 0.7;

  SetTracePath("");
  SetNumThreads(4);
  EnsembleModel off = EddeMethod(fx.config, options).Train(
      fx.data.train, fx.factory);
  const Tensor probs_off = off.PredictProbs(fx.data.test);

  SetTracePath(::testing::TempDir() + "/determinism_trace.json");
  EnsembleModel on = EddeMethod(fx.config, options).Train(
      fx.data.train, fx.factory);
  SetTracePath("");
  const Tensor probs_on = on.PredictProbs(fx.data.test);

  ExpectIdenticalProbs(probs_off, probs_on);
}

TEST_F(ParallelDeterminismTest, BetaProbeIdenticalAcrossThreadCounts) {
  Fixture fx;
  BetaProbeConfig cfg;
  cfg.beta_grid = {0.2, 0.5, 0.8};
  cfg.teacher_epochs = 2;
  cfg.probe_epochs = 2;
  cfg.batch_size = 32;
  cfg.seed = 5;

  SetNumThreads(1);
  const BetaProbeResult serial = SelectBeta(fx.data.train, fx.factory, cfg);
  SetNumThreads(4);
  const BetaProbeResult threaded = SelectBeta(fx.data.train, fx.factory, cfg);

  EXPECT_DOUBLE_EQ(serial.selected_beta, threaded.selected_beta);
  ASSERT_EQ(serial.points.size(), threaded.points.size());
  for (size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.points[i].acc_seen_fold,
                     threaded.points[i].acc_seen_fold);
    EXPECT_DOUBLE_EQ(serial.points[i].acc_unseen_fold,
                     threaded.points[i].acc_unseen_fold);
  }
}

// A conv member trained a few steps; the thread count must not change a
// single bit of the parameters.
std::unique_ptr<ResNet> TrainResNetSteps(int threads) {
  SetNumThreads(threads);
  ResNetConfig cfg;
  cfg.depth = 8;
  cfg.base_width = 4;
  cfg.num_classes = 5;
  auto net = std::make_unique<ResNet>(cfg, 17);
  Rng rng(23);
  Tensor x(Shape{48, 3, 8, 8});
  x.FillNormal(&rng, 0.0f, 1.0f);
  std::vector<int> labels(48);
  for (int& label : labels) label = static_cast<int>(rng.UniformInt(5));
  Sgd sgd(net.get(), SgdConfig{});
  for (int step = 0; step < 3; ++step) {
    net->ZeroGrad();
    const LossResult loss =
        SoftmaxCrossEntropyLoss(net->Forward(x, true), labels);
    net->Backward(loss.grad_logits);
    sgd.Step();
  }
  return net;
}

TEST_F(ParallelDeterminismTest, ResNetTrainingIdenticalAcrossThreadCounts) {
  std::unique_ptr<ResNet> serial = TrainResNetSteps(1);
  std::unique_ptr<ResNet> threaded = TrainResNetSteps(4);
  ExpectIdenticalParameters(serial.get(), threaded.get());
}

// A TextCNN member whose 24 filters per branch make four register tiles of
// output channels.
TextCnnConfig SplittingTextCnnConfig() {
  TextCnnConfig cfg;
  cfg.vocab_size = 60;
  cfg.embed_dim = 16;
  cfg.seq_len = 64;
  cfg.kernel_sizes = {3, 4, 5};
  cfg.filters_per_size = 24;
  return cfg;
}

Tensor RandomTokens(int64_t rows, const TextCnnConfig& cfg, Rng* rng) {
  Tensor ids(Shape{rows, cfg.seq_len});
  for (int64_t i = 0; i < ids.num_elements(); ++i) {
    ids.data()[i] = static_cast<float>(rng->UniformInt(cfg.vocab_size));
  }
  return ids;
}

// A few SGD steps at batch 32 (dropout on), then the eval logits of 128
// sequences.
std::unique_ptr<TextCnn> TrainTextCnnSteps(int threads, Tensor* eval_logits) {
  SetNumThreads(threads);
  const TextCnnConfig cfg = SplittingTextCnnConfig();
  auto net = std::make_unique<TextCnn>(cfg, 19);
  Rng rng(37);
  const Tensor x = RandomTokens(32, cfg, &rng);
  std::vector<int> labels(32);
  for (int& label : labels) label = static_cast<int>(rng.UniformInt(2));
  Sgd sgd(net.get(), SgdConfig{});
  Tape tape;
  for (int step = 0; step < 3; ++step) {
    tape.Reset(static_cast<uint64_t>(step));
    net->ZeroGrad();
    const LossResult loss =
        SoftmaxCrossEntropyLoss(net->Forward(x, &tape), labels);
    net->Backward(loss.grad_logits, &tape);
    sgd.Step();
  }
  *eval_logits = net->Forward(RandomTokens(128, cfg, &rng), nullptr);
  return net;
}

TEST_F(ParallelDeterminismTest, TextCnnTrainingIdenticalAcrossThreadCounts) {
  Tensor logits1, logits4;
  std::unique_ptr<TextCnn> serial = TrainTextCnnSteps(1, &logits1);
  std::unique_ptr<TextCnn> threaded = TrainTextCnnSteps(4, &logits4);
  ExpectIdenticalParameters(serial.get(), threaded.get());
  ExpectIdenticalProbs(logits1, logits4);
}

TEST_F(ParallelDeterminismTest, Conv2dLaneBlocksMatchSingleSamples) {
  // Forward outputs and input gradients do not depend on which lane of
  // which register tile a sample lands in, nor on the pool: a batch of two
  // 16-sample tiles and a padded 8-lane tail, on four threads, gives each
  // sample the bits it gets alone (lane 0 of a padded vector) on one.
  ConvGeom g;
  g.in_channels = 5;
  g.out_channels = 6;
  g.stride = 2;
  const int64_t h = 11, w = 9;
  const int64_t batch = 35;
  Rng rng(41);
  Tensor x(Shape{batch, g.in_channels, h, w});
  x.FillNormal(&rng, 0.0f, 1.0f);
  ASSERT_EQ(Conv2dInputCopyShape(x.shape()).dim(3), 40);
  Tensor weight(Shape{g.out_channels, g.in_channels, 3, 3});
  weight.FillNormal(&rng, 0.0f, 0.3f);
  Tensor bias(Shape{g.out_channels});
  bias.FillNormal(&rng, 0.0f, 1.0f);

  SetNumThreads(4);
  const Tensor y = Conv2dForward(x, weight, bias, g);
  Tensor dy(y.shape());
  dy.FillNormal(&rng, 0.0f, 1.0f);
  Tensor wg(weight.shape(), 0.0f), bg(bias.shape(), 0.0f);
  Tensor dx(x.shape());
  Conv2dBackward(x, weight, dy, g, &wg, &bg, &dx);

  SetNumThreads(1);
  const int64_t x_size = x.num_elements() / batch;
  const int64_t y_size = y.num_elements() / batch;
  for (int64_t n = 0; n < batch; ++n) {
    Tensor x1(Shape{1, g.in_channels, h, w});
    std::copy(x.data() + n * x_size, x.data() + (n + 1) * x_size, x1.data());
    Tensor dy1(Shape{1, y.shape().dim(1), y.shape().dim(2), y.shape().dim(3)});
    std::copy(dy.data() + n * y_size, dy.data() + (n + 1) * y_size,
              dy1.data());
    const Tensor y1 = Conv2dForward(x1, weight, bias, g);
    Tensor wg1(weight.shape(), 0.0f), bg1(bias.shape(), 0.0f);
    Tensor dx1(x1.shape());
    Conv2dBackward(x1, weight, dy1, g, &wg1, &bg1, &dx1);
    for (int64_t i = 0; i < y_size; ++i) {
      ASSERT_EQ(y1.data()[i], y.data()[n * y_size + i])
          << "sample " << n << " output " << i;
    }
    for (int64_t i = 0; i < x_size; ++i) {
      ASSERT_EQ(dx1.data()[i], dx.data()[n * x_size + i])
          << "sample " << n << " input gradient " << i;
    }
  }
}

}  // namespace
}  // namespace edde
