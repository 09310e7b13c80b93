#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ensemble/bagging.h"
#include "nn/densenet.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/resnet.h"
#include "nn/tape.h"
#include "nn/textcnn.h"
#include "optim/sgd.h"
#include "tensor/rng.h"
#include "test_util.h"
#include "utils/metrics.h"
#include "utils/threadpool.h"

namespace edde {
namespace {

// Restores the default pool size after every test so the suite does not
// leak a thread-count override into later tests.
class ParallelForTest : public ::testing::Test {
 protected:
  ~ParallelForTest() override { SetNumThreads(0); }
};

TEST_F(ParallelForTest, CoversEveryIndexExactlyOnce) {
  SetNumThreads(4);
  constexpr int64_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  ParallelFor(0, kN, [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
  for (int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST_F(ParallelForTest, EmptyRangeNeverInvokesBody) {
  SetNumThreads(4);
  int calls = 0;
  ParallelFor(0, 0, [&](int64_t) { ++calls; });
  ParallelFor(5, 5, [&](int64_t) { ++calls; });
  ParallelFor(10, 3, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST_F(ParallelForTest, OneThreadRunsIndicesInOrderOnTheCaller) {
  SetNumThreads(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int64_t> seen;
  ParallelFor(3, 10, [&](int64_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    seen.push_back(i);
  });
  EXPECT_EQ(seen, (std::vector<int64_t>{3, 4, 5, 6, 7, 8, 9}));
}

TEST_F(ParallelForTest, ExceptionPropagatesToCaller) {
  SetNumThreads(4);
  EXPECT_THROW(
      ParallelFor(0, 64,
                  [&](int64_t i) {
                    if (i == 13) throw std::runtime_error("task 13 failed");
                  }),
      std::runtime_error);
  // The pool must survive a throwing region and keep scheduling work.
  std::atomic<int64_t> sum{0};
  ParallelFor(0, 64, [&](int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
}

TEST_F(ParallelForTest, ExceptionPropagatesFromSerialFallback) {
  SetNumThreads(1);
  EXPECT_THROW(ParallelFor(0, 8,
                           [](int64_t) {
                             throw std::runtime_error("serial failure");
                           }),
               std::runtime_error);
}

TEST_F(ParallelForTest, NestedCallsRunSerially) {
  SetNumThreads(4);
  std::atomic<int> inner_calls{0};
  ParallelFor(0, 8, [&](int64_t) {
    // Inside a region the nested loop must run serially, in index order on
    // this thread, rather than re-entering the pool.
    const std::thread::id outer = std::this_thread::get_id();
    int64_t next = 0;
    ParallelFor(0, 100, [&](int64_t i) {
      EXPECT_EQ(std::this_thread::get_id(), outer);
      EXPECT_EQ(i, next++);
    });
    EXPECT_EQ(next, 100);
    inner_calls += static_cast<int>(next);
  });
  EXPECT_EQ(inner_calls.load(), 800);
}

TEST_F(ParallelForTest, SetNumThreadsControlsPoolSize) {
  SetNumThreads(3);
  EXPECT_EQ(NumThreads(), 3);
  SetNumThreads(1);
  EXPECT_EQ(NumThreads(), 1);
  SetNumThreads(0);
  EXPECT_GE(NumThreads(), 1);
}

// Parallelism is across members only: a member's training step and its
// evaluation run serially on the calling thread, however large the pool.
// The shapes are large enough to give every conv pass several register
// tiles and the MLP's GEMMs several row blocks.
class MemberLevelParallelismTest : public ParallelForTest {
 protected:
  static int64_t Regions() {
    return MetricsRegistry::Global().GetCounter("threadpool.regions")->Value();
  }

  // One SGD step on `x` and one eval batch, at four threads; returns how
  // many pool regions they opened.
  static int64_t RegionsOfStepAndEval(Module* net, const Tensor& x,
                                      int num_classes) {
    SetNumThreads(4);
    Rng rng(5);
    std::vector<int> labels(static_cast<size_t>(x.shape().dim(0)));
    for (int& label : labels) {
      label = static_cast<int>(rng.UniformInt(num_classes));
    }
    Sgd sgd(net, SgdConfig{});
    const int64_t before = Regions();
    Tape tape;
    tape.Reset(1);
    net->ZeroGrad();
    const LossResult loss =
        SoftmaxCrossEntropyLoss(net->Forward(x, &tape), labels);
    net->Backward(loss.grad_logits, &tape);
    sgd.Step();
    (void)net->Forward(x, nullptr);
    return Regions() - before;
  }
};

TEST_F(MemberLevelParallelismTest, ResNetStepAndEvalOpenNoRegion) {
  ResNetConfig cfg;
  cfg.depth = 8;
  cfg.base_width = 4;
  cfg.num_classes = 5;
  ResNet net(cfg, 17);
  Rng rng(23);
  Tensor x(Shape{48, 3, 8, 8});
  x.FillNormal(&rng, 0.0f, 1.0f);
  EXPECT_EQ(RegionsOfStepAndEval(&net, x, cfg.num_classes), 0);
}

TEST_F(MemberLevelParallelismTest, DenseNetStepAndEvalOpenNoRegion) {
  DenseNetConfig cfg;
  cfg.num_classes = 5;
  DenseNet net(cfg, 17);
  Rng rng(23);
  Tensor x(Shape{48, 3, 8, 8});
  x.FillNormal(&rng, 0.0f, 1.0f);
  EXPECT_EQ(RegionsOfStepAndEval(&net, x, cfg.num_classes), 0);
}

TEST_F(MemberLevelParallelismTest, TextCnnStepAndEvalOpenNoRegion) {
  TextCnnConfig cfg;
  cfg.vocab_size = 60;
  cfg.seq_len = 64;
  cfg.filters_per_size = 24;
  TextCnn net(cfg, 19);
  Rng rng(37);
  Tensor ids(Shape{32, cfg.seq_len});
  for (int64_t i = 0; i < ids.num_elements(); ++i) {
    ids.data()[i] = static_cast<float>(rng.UniformInt(cfg.vocab_size));
  }
  EXPECT_EQ(RegionsOfStepAndEval(&net, ids, cfg.num_classes), 0);
}

TEST_F(MemberLevelParallelismTest, MlpStepAndEvalOpenNoRegion) {
  MlpConfig cfg;
  cfg.in_features = 300;
  cfg.hidden = {256, 64};
  cfg.num_classes = 100;
  Mlp net(cfg, 17);
  Rng rng(23);
  Tensor x(Shape{512, cfg.in_features});
  x.FillNormal(&rng, 0.0f, 1.0f);
  EXPECT_EQ(RegionsOfStepAndEval(&net, x, cfg.num_classes), 0);
}

TEST_F(MemberLevelParallelismTest, BaggingTrainsMembersInPoolRegions) {
  SetNumThreads(4);
  const testing::BlobSplit data =
      testing::MakeBlobsSplit(64, 16, 4, 3, 1, /*spread=*/1.5f);
  MethodConfig mc;
  mc.num_members = 3;
  mc.epochs_per_member = 1;
  mc.batch_size = 16;
  mc.seed = 11;
  const ModelFactory factory = [](uint64_t seed) {
    MlpConfig cfg;
    cfg.in_features = 4;
    cfg.hidden = {8};
    cfg.num_classes = 3;
    return std::make_unique<Mlp>(cfg, seed);
  };
  const int64_t before = Regions();
  EnsembleModel ensemble = Bagging(mc).Train(data.train, factory);
  EXPECT_EQ(ensemble.size(), 3);
  EXPECT_GT(Regions(), before);
}

}  // namespace
}  // namespace edde
