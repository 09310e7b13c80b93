#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "ensemble/ensemble_io.h"
#include "ensemble/run_checkpoint.h"
#include "nn/checkpoint.h"
#include "nn/mlp.h"
#include "nn/resnet.h"
#include "optim/sgd.h"
#include "test_util.h"
#include "utils/durable_io.h"

namespace edde {
namespace {

using testing::ParameterBytes;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

bool ModulesEqual(Module* a, Module* b) {
  auto pa = a->Parameters();
  auto pb = b->Parameters();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    if (pa[i]->value.shape() != pb[i]->value.shape()) return false;
    for (int64_t j = 0; j < pa[i]->value.num_elements(); ++j) {
      if (pa[i]->value.data()[j] != pb[i]->value.data()[j]) return false;
    }
  }
  return true;
}

MlpConfig SmallMlpConfig() {
  MlpConfig cfg;
  cfg.in_features = 6;
  cfg.hidden = {10};
  cfg.num_classes = 4;
  return cfg;
}

/// `out` as the one section of a framed file, read back. Sections reach
/// their parsers only through ReadSectionFile.
SectionReader Framed(const SectionWriter& out) {
  constexpr uint32_t kMagic = 0x7E57F11E;
  const std::string path = TempPath("framed.bin");
  EXPECT_TRUE(WriteSectionFile(path, kMagic, 1, {{1, &out}}).ok());
  Result<SectionFile> file = ReadSectionFile(path, kMagic, 1);
  SectionReader in;
  EXPECT_TRUE(file.ok()) << file.status();
  if (file.ok()) {
    EXPECT_TRUE(file.ValueOrDie().Next(1, &in).ok());
  }
  return in;
}

/// Runs WriteModuleParams → ReadModuleParams through a framed file.
Status RoundTrip(Module* src, Module* dst) {
  SectionWriter out;
  WriteModuleParams(src, &out);
  SectionReader in = Framed(out);
  return ReadModuleParams(dst, &in);
}

/// The optimizer's momentum as SaveState writes it.
std::string MomentumBytes(const Sgd& optimizer) {
  SectionWriter out;
  optimizer.SaveState(&out);
  return out.payload();
}

TEST(CheckpointTest, ModuleParamsRoundTripMlp) {
  Mlp src(SmallMlpConfig(), 1), dst(SmallMlpConfig(), 2);
  ASSERT_FALSE(ModulesEqual(&src, &dst));
  ASSERT_TRUE(RoundTrip(&src, &dst).ok());
  EXPECT_TRUE(ModulesEqual(&src, &dst));
}

TEST(CheckpointTest, EnsembleArtifactRoundTripsResNetWithBatchNormBuffers) {
  ResNetConfig cfg;
  cfg.depth = 8;
  cfg.base_width = 2;
  cfg.num_classes = 3;
  auto owned = std::make_unique<ResNet>(cfg, 3);
  ResNet* src = owned.get();
  // Touch the running statistics so they are non-trivial.
  Rng rng(5);
  Tensor x(Shape{4, 3, 8, 8});
  x.FillNormal(&rng, 0.5f, 2.0f);
  src->Forward(x, /*training=*/true);
  EnsembleModel ensemble;
  ensemble.AddMember(std::move(owned), 1.0);

  const std::string path = TempPath("resnet.edde");
  ASSERT_TRUE(SaveEnsemble(ensemble, path).ok());
  Result<EnsembleModel> loaded = LoadEnsemble(path, [&](uint64_t) {
    return std::make_unique<ResNet>(cfg, 4);
  });
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  Module* dst = loaded.ValueOrDie().member(0);
  EXPECT_TRUE(ModulesEqual(src, dst));
  // Eval-mode outputs (which use running stats) must agree exactly.
  Tensor ya = src->Forward(x, false);
  Tensor yb = dst->Forward(x, false);
  for (int64_t i = 0; i < ya.num_elements(); ++i) {
    EXPECT_FLOAT_EQ(ya.at(i), yb.at(i));
  }
}

TEST(CheckpointTest, ArchitectureMismatchIsError) {
  MlpConfig small, big;
  small.in_features = 4;
  big.in_features = 8;
  Mlp src(small, 1), dst(big, 2);
  EXPECT_EQ(RoundTrip(&src, &dst).code(), StatusCode::kInvalidArgument);
}

// A parameter payload that a hostile file can carry behind a valid CRC: the
// right parameter count and first name, then a bogus rank/dims header.
struct HostileHeader {
  uint64_t rank;
  std::vector<int64_t> dims;
};

const HostileHeader kHostileHeaders[] = {
    {uint64_t{1} << 40, {}},  // would size a multi-terabyte dims vector
    {2, {-1, 10}},            // would abort in Shape's non-negativity check
};

SectionWriter HostileParams(Module* module, const HostileHeader& header) {
  SectionWriter out;
  out.WriteU64(module->Parameters().size());
  out.WriteString(module->Parameters()[0]->name);
  out.WriteU64(header.rank);
  for (int64_t d : header.dims) out.WriteI64(d);
  return out;
}

TEST(CheckpointTest, HostileRankOrDimIsCorruption) {
  for (const HostileHeader& header : kHostileHeaders) {
    Mlp model(SmallMlpConfig(), 1);
    SectionReader in = Framed(HostileParams(&model, header));
    EXPECT_EQ(ReadModuleParams(&model, &in).code(), StatusCode::kCorruption)
        << "rank " << header.rank;
  }
}

TEST(CheckpointTest, HostileInflightCheckpointIsCorruption) {
  constexpr uint64_t kFingerprint = 77;
  Mlp model(SmallMlpConfig(), 1);
  const std::string good = TempPath("inflight_good.edde");
  ASSERT_TRUE(SaveInflightCheckpoint(good, &model, Sgd(&model, SgdConfig()),
                                     Rng(2), /*next_epoch=*/3, kFingerprint)
                  .ok());
  for (const HostileHeader& header : kHostileHeaders) {
    // Swap in the hostile parameter payload with a freshly computed CRC.
    // Sections are: header, RNG, parameters, optimizer.
    const std::string bad = TempPath("inflight_hostile.edde");
    uint32_t magic = 0;
    std::vector<testing::Frame> frames =
        testing::ParseFrames(testing::ReadWholeFile(good), &magic);
    ASSERT_EQ(frames.size(), 4u);
    frames[2].payload = HostileParams(&model, header).payload();
    testing::WriteWholeFile(bad, testing::BuildFile(magic, frames));

    Mlp restored(SmallMlpConfig(), 2);
    Sgd optimizer(&restored, SgdConfig());
    Rng rng(0);
    int next_epoch = 0;
    EXPECT_EQ(LoadInflightCheckpoint(bad, &restored, &optimizer, &rng,
                                     &next_epoch, kFingerprint)
                  .code(),
              StatusCode::kCorruption)
        << "rank " << header.rank;
  }
}

/// A model one SGD step in, its inflight file, and a second model with
/// other weights, momentum and RNG to restore it into.
class InflightRestoreTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kFingerprint = 91;

  void SetUp() override {
    Mlp saved(SmallMlpConfig(), 1);
    Sgd optimizer(&saved, SgdConfig());
    for (Parameter* p : saved.Parameters()) p->grad.Fill(0.5f);
    optimizer.Step();
    good_ = TempPath("inflight_restore.edde");
    ASSERT_TRUE(SaveInflightCheckpoint(good_, &saved, optimizer, Rng(2),
                                       /*next_epoch=*/3, kFingerprint)
                    .ok());
    for (Parameter* p : restored_.Parameters()) p->grad.Fill(-0.25f);
    optimizer_.Step();
  }

  /// Loads the good file with frame `frame`'s payload replaced by
  /// `payload` (CRC recomputed) and expects it refused with `code`, and
  /// the model, momentum and RNG untouched.
  void ExpectRefusedUntouched(size_t frame, const std::string& payload,
                              StatusCode code) {
    uint32_t magic = 0;
    std::vector<testing::Frame> frames =
        testing::ParseFrames(testing::ReadWholeFile(good_), &magic);
    ASSERT_EQ(frames.size(), 4u);  // header, RNG, parameters, momentum
    frames[frame].payload = payload;
    const std::string bad = TempPath("inflight_refused.edde");
    testing::WriteWholeFile(bad, testing::BuildFile(magic, frames));

    const std::string weights = ParameterBytes(&restored_);
    const std::string momentum = MomentumBytes(optimizer_);
    Rng expected_rng = rng_;
    int next_epoch = -1;
    EXPECT_EQ(LoadInflightCheckpoint(bad, &restored_, &optimizer_, &rng_,
                                     &next_epoch, kFingerprint)
                  .code(),
              code);
    EXPECT_EQ(ParameterBytes(&restored_), weights);
    EXPECT_EQ(MomentumBytes(optimizer_), momentum);
    EXPECT_EQ(rng_.NextU64(), expected_rng.NextU64());
    EXPECT_EQ(next_epoch, -1);
  }

  std::string good_;
  Mlp restored_{SmallMlpConfig(), 7};
  Sgd optimizer_{&restored_, SgdConfig()};
  Rng rng_{11};
};

TEST_F(InflightRestoreTest, BadMomentumSlotCountLeavesEverythingUntouched) {
  uint32_t magic = 0;
  const std::vector<testing::Frame> frames =
      testing::ParseFrames(testing::ReadWholeFile(good_), &magic);
  std::string momentum = frames[3].payload;
  testing::StoreWord<uint64_t>(&momentum, 0, 999);
  ExpectRefusedUntouched(3, momentum, StatusCode::kCorruption);
}

TEST_F(InflightRestoreTest, WrongLastParameterShapeLeavesEverythingUntouched) {
  // WriteModuleParams' layout, with the last parameter one row too long.
  auto params = restored_.Parameters();
  SectionWriter out;
  out.WriteU64(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    std::vector<int64_t> dims = params[i]->value.shape().dims();
    if (i + 1 == params.size()) ++dims[0];
    int64_t elements = 1;
    for (int64_t d : dims) elements *= d;
    out.WriteString(params[i]->name);
    out.WriteU64(dims.size());
    for (int64_t d : dims) out.WriteI64(d);
    const std::vector<float> values(static_cast<size_t>(elements), 3.0f);
    out.WriteFloats(values.data(), values.size());
  }
  ExpectRefusedUntouched(2, out.payload(), StatusCode::kInvalidArgument);
}

TEST(SgdStateTest, BadLaterSlotRestoresNoSlot) {
  Mlp model(SmallMlpConfig(), 1);
  Sgd saved(&model, SgdConfig());
  for (Parameter* p : model.Parameters()) p->grad.Fill(0.5f);
  saved.Step();
  SectionWriter state;
  saved.SaveState(&state);
  // The last slot's data is cut short, after every earlier slot parsed.
  std::string payload = state.payload();
  payload.resize(payload.size() - sizeof(float));
  SectionWriter truncated;
  truncated.WriteBytes(payload.data(), payload.size());

  Sgd loaded(&model, SgdConfig());
  const std::string before = MomentumBytes(loaded);
  SectionReader in = Framed(truncated);
  EXPECT_EQ(loaded.LoadState(&in).code(), StatusCode::kCorruption);
  EXPECT_EQ(MomentumBytes(loaded), before);
}

TEST(CheckpointTest, BadLaterParameterRestoresNoParameter) {
  Mlp src(SmallMlpConfig(), 1), dst(SmallMlpConfig(), 2);
  SectionWriter out;
  WriteModuleParams(&src, &out);
  std::string payload = out.payload();
  payload.resize(payload.size() - sizeof(float));
  SectionWriter truncated;
  truncated.WriteBytes(payload.data(), payload.size());
  const std::string before = ParameterBytes(&dst);
  SectionReader in = Framed(truncated);
  EXPECT_EQ(ReadModuleParams(&dst, &in).code(), StatusCode::kCorruption);
  EXPECT_EQ(ParameterBytes(&dst), before);
}

TEST(CopyParametersTest, CopiesValuesNotGradients) {
  MlpConfig cfg;
  Mlp src(cfg, 1), dst(cfg, 2);
  // Put a sentinel gradient in dst; copying values must not disturb it.
  dst.Parameters()[0]->grad.Fill(7.0f);
  ASSERT_TRUE(CopyParameters(&src, &dst).ok());
  EXPECT_TRUE(ModulesEqual(&src, &dst));
  EXPECT_FLOAT_EQ(dst.Parameters()[0]->grad.at(0), 7.0f);
}

TEST(CopyParametersTest, MismatchIsError) {
  MlpConfig a, b;
  a.hidden = {4};
  b.hidden = {4, 4};
  Mlp src(a, 1), dst(b, 2);
  EXPECT_FALSE(CopyParameters(&src, &dst).ok());
}

}  // namespace
}  // namespace edde
