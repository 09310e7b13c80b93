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
#include "utils/serialize.h"

namespace edde {
namespace {

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

/// Runs WriteModuleParams → ReadModuleParams through an in-memory payload.
Status RoundTrip(Module* src, Module* dst) {
  SectionWriter out;
  WriteModuleParams(src, &out);
  SectionReader in;
  in.InitFromPayload(out.payload());
  return ReadModuleParams(dst, &in);
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
    SectionReader in;
    in.InitFromPayload(HostileParams(&model, header).payload());
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
    // Copy the good file section by section, swapping in the hostile
    // parameter payload with a freshly computed CRC. Sections are: header,
    // RNG, parameters, optimizer.
    const std::string bad = TempPath("inflight_hostile.edde");
    BinaryReader reader(good);
    uint32_t magic = 0;
    ASSERT_TRUE(reader.ReadU32(&magic));
    BinaryWriter writer(bad);
    writer.WriteU32(magic);
    for (int i = 0; reader.remaining() > 0; ++i) {
      SectionReader section;
      ASSERT_TRUE(section.Load(&reader).ok());
      SectionWriter copy;
      if (i == 2) {
        copy = HostileParams(&model, header);
      } else {
        const std::string payload = section.TakeRemaining();
        copy.WriteBytes(payload.data(), payload.size());
      }
      copy.AppendTo(&writer, section.tag(), section.version());
    }
    ASSERT_TRUE(writer.Finish().ok());

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
