#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "ensemble/ensemble_model.h"
#include "metrics/metrics.h"
#include "nn/densenet.h"
#include "nn/mlp.h"
#include "nn/resnet.h"
#include "nn/textcnn.h"
#include "tensor/rng.h"
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

TEST(EnsembleModelTest, PredictProbsIsCombineOfMemberProbs) {
  // Eq. 16 has one implementation: PredictProbs is Combine over one
  // MemberProbs pass, bit for bit, for unequal α.
  EnsembleModel m;
  m.AddMember(SmallMlp(12), 0.3);
  m.AddMember(SmallMlp(13), 1.7);
  m.AddMember(SmallMlp(14), 0.9);
  Dataset data = MakeBlobs(37, 4, 3, 8);
  const Tensor direct = m.PredictProbs(data);
  const Tensor combined = m.Combine(m.MemberProbs(data));
  ASSERT_EQ(direct.shape(), combined.shape());
  EXPECT_EQ(std::memcmp(direct.data(), combined.data(),
                        sizeof(float) * direct.num_elements()),
            0);
}

TEST(EnsembleModelTest, MeanMemberAccuracyIsMeanOfAccuracies) {
  EnsembleModel m;
  auto m1 = SmallMlp(10);
  auto m2 = SmallMlp(11);
  Mlp* r1 = m1.get();
  Mlp* r2 = m2.get();
  m.AddMember(std::move(m1), 1.0);
  m.AddMember(std::move(m2), 1.0);
  Dataset data = MakeBlobs(40, 4, 3, 7);
  const double avg = MeanMemberAccuracy(m.MemberProbs(data), data.labels());
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

// ---------------------------------------------------------------------------
// Re-entrant eval: the server runs one member on several batches at once
// (one batch per worker), with no lock, so eval-mode Forward must keep no
// state in the layers.
// ---------------------------------------------------------------------------

struct EvalFamily {
  std::string name;
  std::function<std::unique_ptr<Module>()> make;
  /// An input batch of `rows` rows drawn from `seed`.
  std::function<Tensor(int64_t rows, uint64_t seed)> batch;
};

Tensor UniformTensor(Shape shape, uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  t.FillUniform(&rng, -1.0f, 1.0f);
  return t;
}

const std::vector<EvalFamily>& EvalFamilies() {
  static const std::vector<EvalFamily> families = {
      {"ResNet8",
       [] {
         ResNetConfig cfg;
         cfg.depth = 8;
         cfg.base_width = 4;
         cfg.num_classes = 5;
         return std::make_unique<ResNet>(cfg, 11);
       },
       [](int64_t rows, uint64_t seed) {
         return UniformTensor(Shape{rows, 3, 8, 8}, seed);
       }},
      {"DenseNet13",
       [] {
         DenseNetConfig cfg;
         cfg.depth = 13;
         cfg.growth = 2;
         cfg.num_classes = 5;
         return std::make_unique<DenseNet>(cfg, 12);
       },
       [](int64_t rows, uint64_t seed) {
         return UniformTensor(Shape{rows, 3, 8, 8}, seed);
       }},
      {"TextCnn",
       [] {
         TextCnnConfig cfg;
         cfg.vocab_size = 40;
         cfg.embed_dim = 6;
         cfg.seq_len = 10;
         cfg.kernel_sizes = {2, 3};
         cfg.filters_per_size = 4;
         cfg.num_classes = 3;
         return std::make_unique<TextCnn>(cfg, 13);
       },
       [](int64_t rows, uint64_t seed) {
         Tensor ids(Shape{rows, 10});
         Rng rng(seed);
         for (int64_t i = 0; i < ids.num_elements(); ++i) {
           ids.data()[i] = static_cast<float>(rng.UniformInt(40));
         }
         return ids;
       }},
      {"Mlp",
       [] {
         MlpConfig cfg;
         cfg.in_features = 12;
         cfg.hidden = {16, 8};
         cfg.num_classes = 4;
         return std::make_unique<Mlp>(cfg, 14);
       },
       [](int64_t rows, uint64_t seed) {
         return UniformTensor(Shape{rows, 12}, seed);
       }},
  };
  return families;
}

TEST(EvalForwardTest, LeavesThePendingBackwardCacheAlone) {
  // An eval call between a training Forward and its Backward (another
  // thread serving the same weights, say) must not change any gradient,
  // whether the step runs on the wrappers' tape or on a caller's tape.
  for (const EvalFamily& family : EvalFamilies()) {
    SCOPED_TRACE(family.name);
    const Tensor x = family.batch(4, 7);
    std::unique_ptr<Module> plain = family.make();
    std::unique_ptr<Module> interleaved = family.make();
    std::unique_ptr<Module> taped = family.make();
    const Tensor y = plain->Forward(x, /*training=*/true);
    plain->Backward(Tensor(y.shape(), 0.5f));
    interleaved->Forward(x, /*training=*/true);
    interleaved->Forward(family.batch(3, 8), /*training=*/false);
    interleaved->Backward(Tensor(y.shape(), 0.5f));
    Tape tape;
    taped->Forward(x, &tape);
    taped->Forward(family.batch(3, 8), nullptr);
    taped->Forward(family.batch(2, 9), /*training=*/false);
    taped->Backward(Tensor(y.shape(), 0.5f), &tape);
    EXPECT_TRUE(tape.empty());
    const std::vector<Parameter*> want = plain->Parameters();
    for (Module* other : {interleaved.get(), taped.get()}) {
      const std::vector<Parameter*> got = other->Parameters();
      ASSERT_EQ(got.size(), want.size());
      for (size_t p = 0; p < want.size(); ++p) {
        if (want[p]->grad.empty()) continue;  // BatchNorm running statistics
        EXPECT_EQ(
            std::memcmp(got[p]->grad.data(), want[p]->grad.data(),
                        sizeof(float) *
                            static_cast<size_t>(want[p]->grad.num_elements())),
            0)
            << "parameter " << p << " (" << want[p]->name << ")";
      }
    }
  }
}

TEST(PackForEvalTest, PackedEvalHasTheUnpackedBits) {
  // Every row count from one row to past two 6-row GEMM tiles, then two
  // batches that span many tiles.
  std::vector<int64_t> row_counts;
  for (int64_t rows = 1; rows <= 13; ++rows) row_counts.push_back(rows);
  row_counts.push_back(64);
  row_counts.push_back(128);
  for (const EvalFamily& family : EvalFamilies()) {
    SCOPED_TRACE(family.name);
    std::unique_ptr<Module> member = family.make();
    member->Forward(family.batch(4, 99), /*training=*/true);
    std::vector<Tensor> unpacked;
    for (int64_t rows : row_counts) {
      unpacked.push_back(member->Forward(family.batch(rows, 50), nullptr));
    }
    member->PackForEval();
    for (size_t i = 0; i < row_counts.size(); ++i) {
      SCOPED_TRACE(row_counts[i]);
      const Tensor got = member->Forward(family.batch(row_counts[i], 50),
                                         nullptr);
      ASSERT_EQ(got.shape(), unpacked[i].shape());
      EXPECT_EQ(std::memcmp(got.data(), unpacked[i].data(),
                            sizeof(float) * static_cast<size_t>(
                                                got.num_elements())),
                0);
    }
  }
}

TEST(PackForEvalDeathTest, TrainingAPackedMemberAborts) {
  for (const EvalFamily& family : EvalFamilies()) {
    SCOPED_TRACE(family.name);
    std::unique_ptr<Module> member = family.make();
    member->PackForEval();
    const Tensor x = family.batch(3, 5);
    EXPECT_DEATH(
        {
          Tape tape;
          member->Forward(x, &tape);
        },
        "training a layer packed for eval");
  }
}

// The member runs unpacked (Forward on the bare module) or packed (through
// an ensemble, whose AddMember packs it), so the threads share either the
// weights or the pack.
class ConcurrentEvalTest
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {};

TEST_P(ConcurrentEvalTest, ThreadsOnOneMemberMatchSerialBitForBit) {
  const EvalFamily& family = EvalFamilies()[std::get<0>(GetParam())];
  const bool packed = std::get<1>(GetParam());
  std::unique_ptr<Module> member = family.make();
  // One training pass first: BatchNorm's running statistics leave their
  // defaults, and every layer holds a Backward cache eval must not touch.
  member->Forward(family.batch(4, 99), /*training=*/true);
  Module* const bare = member.get();
  EnsembleModel ensemble;
  if (packed) ensemble.AddMember(std::move(member), 1.0);
  const auto eval = [&](const Tensor& x) {
    return packed ? ensemble.MemberProbsOnBatch(0, x)
                  : bare->Forward(x, nullptr);
  };

  // Each thread gets its own batch, of its own row count: a cache shared
  // between concurrent calls would cross their shapes or their values.
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<Tensor> inputs;
  std::vector<Tensor> serial;
  for (int i = 0; i < kThreads; ++i) {
    inputs.push_back(family.batch(2 + i, 100 + static_cast<uint64_t>(i)));
    serial.push_back(eval(inputs.back()));
  }
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int r = 0; r < kRounds; ++r) {
        const Tensor got = eval(inputs[i]);
        const Tensor& want = serial[static_cast<size_t>(i)];
        if (got.shape() != want.shape() ||
            std::memcmp(got.data(), want.data(),
                        sizeof(float) * static_cast<size_t>(
                                            want.num_elements())) != 0) {
          ++mismatches[static_cast<size_t>(i)];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(mismatches[static_cast<size_t>(i)], 0) << "thread " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesPackedAndNot, ConcurrentEvalTest,
    ::testing::Combine(::testing::Range<size_t>(0, 4), ::testing::Bool()),
    [](const ::testing::TestParamInfo<ConcurrentEvalTest::ParamType>& info) {
      return EvalFamilies()[std::get<0>(info.param)].name +
             (std::get<1>(info.param) ? "_packed" : "_unpacked");
    });

}  // namespace
}  // namespace edde
