#include <gtest/gtest.h>

#include <cstring>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/edde.h"
#include "ensemble/ensemble_io.h"
#include "nn/mlp.h"
#include "test_util.h"
#include "utils/durable_io.h"

namespace edde {
namespace {

using testing::MakeBlobsSplit;

MlpConfig SmallCfg() {
  MlpConfig cfg;
  cfg.in_features = 6;
  cfg.hidden = {10};
  cfg.num_classes = 3;
  return cfg;
}

ModelFactory SmallFactory() {
  return [](uint64_t seed) {
    return std::make_unique<Mlp>(SmallCfg(), seed);
  };
}

EnsembleModel MakeTrainedish(int members) {
  EnsembleModel m;
  for (int t = 0; t < members; ++t) {
    m.AddMember(SmallFactory()(static_cast<uint64_t>(100 + t)),
                0.5 + 0.25 * t);
  }
  return m;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(EnsembleIoTest, RoundTripPreservesPredictionsAndAlphas) {
  EnsembleModel original = MakeTrainedish(3);
  const std::string path = TempPath("ens_roundtrip.bin");
  ASSERT_TRUE(SaveEnsemble(original, path).ok());

  Result<EnsembleModel> loaded = LoadEnsemble(path, SmallFactory());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EnsembleModel restored = std::move(loaded).ValueOrDie();
  ASSERT_EQ(restored.size(), 3);
  for (int64_t t = 0; t < 3; ++t) {
    EXPECT_NEAR(restored.alpha(t), original.alpha(t), 1e-6);
  }

  const auto data = MakeBlobsSplit(32, 0, 6, 3, 1);
  Tensor p_orig = original.PredictProbs(data.train);
  Tensor p_rest = restored.PredictProbs(data.train);
  for (int64_t i = 0; i < p_orig.num_elements(); ++i) {
    EXPECT_FLOAT_EQ(p_orig.at(i), p_rest.at(i));
  }
}

TEST(EnsembleIoTest, EmptyEnsembleIsInvalidArgument) {
  EnsembleModel empty;
  EXPECT_EQ(SaveEnsemble(empty, TempPath("empty.bin")).code(),
            StatusCode::kInvalidArgument);
}

TEST(EnsembleIoTest, MissingFileIsIOError) {
  Result<EnsembleModel> r =
      LoadEnsemble("/nonexistent/ens.bin", SmallFactory());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(EnsembleIoTest, GarbageMagicIsCorruption) {
  const std::string path = TempPath("ens_garbage.bin");
  FILE* f = fopen(path.c_str(), "wb");
  fwrite("garbage-not-an-ensemble", 1, 23, f);
  fclose(f);
  Result<EnsembleModel> r = LoadEnsemble(path, SmallFactory());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(EnsembleIoTest, WrongFactoryArchitectureIsInvalidArgument) {
  EnsembleModel original = MakeTrainedish(2);
  const std::string path = TempPath("ens_arch.bin");
  ASSERT_TRUE(SaveEnsemble(original, path).ok());
  const ModelFactory other_factory = [](uint64_t seed) {
    MlpConfig cfg = SmallCfg();
    cfg.hidden = {10, 10};  // different depth
    return std::make_unique<Mlp>(cfg, seed);
  };
  Result<EnsembleModel> r = LoadEnsemble(path, other_factory);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(EnsembleIoTest, TruncatedFileIsCorruption) {
  EnsembleModel original = MakeTrainedish(2);
  const std::string full_path = TempPath("ens_full.bin");
  ASSERT_TRUE(SaveEnsemble(original, full_path).ok());
  // Copy the first half of the bytes.
  FILE* in = fopen(full_path.c_str(), "rb");
  fseek(in, 0, SEEK_END);
  const long size = ftell(in);
  fseek(in, 0, SEEK_SET);
  std::vector<char> buf(static_cast<size_t>(size / 2));
  ASSERT_EQ(fread(buf.data(), 1, buf.size(), in), buf.size());
  fclose(in);
  const std::string cut_path = TempPath("ens_cut.bin");
  FILE* out = fopen(cut_path.c_str(), "wb");
  fwrite(buf.data(), 1, buf.size(), out);
  fclose(out);

  Result<EnsembleModel> r = LoadEnsemble(cut_path, SmallFactory());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(EnsembleIoTest, AlphaClampBoundaryWeightsRoundTrip) {
  // EDDE's Eq. 15 clamp makes kAlphaMin / kAlphaMax the extreme member
  // weights a trained ensemble can carry; both must survive serialization.
  EnsembleModel original;
  original.AddMember(SmallFactory()(100), kAlphaMin);
  original.AddMember(SmallFactory()(101), kAlphaMax);
  const std::string path = TempPath("ens_alpha_clamp.bin");
  ASSERT_TRUE(SaveEnsemble(original, path).ok());
  Result<EnsembleModel> loaded = LoadEnsemble(path, SmallFactory());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const EnsembleModel restored = std::move(loaded).ValueOrDie();
  ASSERT_EQ(restored.size(), 2);
  EXPECT_NEAR(restored.alpha(0), kAlphaMin, 1e-9);
  EXPECT_NEAR(restored.alpha(1), kAlphaMax, 1e-9);
}

std::vector<char> ReadAll(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  fseek(f, 0, SEEK_END);
  std::vector<char> buf(static_cast<size_t>(ftell(f)));
  fseek(f, 0, SEEK_SET);
  EXPECT_EQ(fread(buf.data(), 1, buf.size(), f), buf.size());
  fclose(f);
  return buf;
}

void WriteAll(const std::string& path, const char* data, size_t size) {
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(fwrite(data, 1, size, f), size);
  fclose(f);
}

TEST(EnsembleIoTest, ZeroMemberFileIsCorruption) {
  // Craft a file with a valid magic followed by a zero member count: the
  // loader must reject it with a clean Status, never return an empty model.
  EnsembleModel one = MakeTrainedish(1);
  const std::string real_path = TempPath("ens_one.bin");
  ASSERT_TRUE(SaveEnsemble(one, real_path).ok());
  const std::vector<char> real = ReadAll(real_path);
  ASSERT_GE(real.size(), 12u);  // u32 magic + u64 member count

  std::vector<char> crafted(real.begin(), real.begin() + 4);  // keep magic
  crafted.resize(12, 0);  // member count = 0
  const std::string crafted_path = TempPath("ens_zero_members.bin");
  WriteAll(crafted_path, crafted.data(), crafted.size());

  Result<EnsembleModel> r = LoadEnsemble(crafted_path, SmallFactory());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(EnsembleIoTest, EveryTruncationPointFailsCleanly) {
  // Cutting the file at *any* byte must produce a non-ok Status (IOError
  // for the empty file, Corruption otherwise) — never a crash, hang, or a
  // silently short ensemble.
  EnsembleModel original = MakeTrainedish(2);
  const std::string full_path = TempPath("ens_sweep_full.bin");
  ASSERT_TRUE(SaveEnsemble(original, full_path).ok());
  const std::vector<char> full = ReadAll(full_path);
  ASSERT_GT(full.size(), 16u);

  const std::string cut_path = TempPath("ens_sweep_cut.bin");
  // Every prefix in the header region, then a spread through the params.
  std::vector<size_t> cuts;
  for (size_t n = 0; n < 64 && n < full.size(); ++n) cuts.push_back(n);
  for (size_t n = 64; n < full.size(); n += full.size() / 16) cuts.push_back(n);
  for (size_t n : cuts) {
    WriteAll(cut_path, full.data(), n);
    Result<EnsembleModel> r = LoadEnsemble(cut_path, SmallFactory());
    ASSERT_FALSE(r.ok()) << "prefix of " << n << " bytes loaded successfully";
    ASSERT_TRUE(r.status().code() == StatusCode::kCorruption ||
                r.status().code() == StatusCode::kIOError)
        << "prefix " << n << ": " << r.status();
  }
}

// ---------------------------------------------------------------------------
// fp16 artifact sections (DESIGN.md §13)
// ---------------------------------------------------------------------------

TEST(EnsembleIoFp16Test, RoundTripIsCloseAndFileIsSmaller) {
  EnsembleModel original = MakeTrainedish(3);
  const std::string f32_path = TempPath("ens_f32.bin");
  const std::string f16_path = TempPath("ens_f16.bin");
  ASSERT_TRUE(SaveEnsemble(original, f32_path).ok());
  EnsembleSaveOptions fp16;
  fp16.dtype = ArtifactDtype::kFloat16;
  ASSERT_TRUE(SaveEnsemble(original, f16_path, fp16).ok());

  // Parameter payloads halve; names/dims/frames stay, so well under 3/4.
  const size_t f32_size = ReadAll(f32_path).size();
  const size_t f16_size = ReadAll(f16_path).size();
  EXPECT_LT(f16_size, f32_size * 3 / 4)
      << f16_size << " vs " << f32_size << " bytes";

  Result<EnsembleModel> loaded = LoadEnsemble(f16_path, SmallFactory());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EnsembleModel restored = std::move(loaded).ValueOrDie();
  ASSERT_EQ(restored.size(), 3);
  for (int64_t t = 0; t < 3; ++t) {
    EXPECT_NEAR(restored.alpha(t), original.alpha(t), 1e-6);
  }
  // binary16 keeps 11 significand bits; untrained He-normal weights are
  // O(1), so probabilities move by far less than 1e-2.
  const auto data = MakeBlobsSplit(32, 0, 6, 3, 1);
  Tensor p_orig = original.PredictProbs(data.train);
  Tensor p_rest = restored.PredictProbs(data.train);
  for (int64_t i = 0; i < p_orig.num_elements(); ++i) {
    EXPECT_NEAR(p_orig.at(i), p_rest.at(i), 1e-2) << "prob " << i;
  }
}

TEST(EnsembleIoFp16Test, EveryByteBitFlipIsDetected) {
  // Flipping any single bit anywhere in the file — magic, section frame
  // fields, fp16 payload bytes, CRC trailers — must fail the load with a
  // clean non-ok Status. The payloads are covered by the frame CRCs, the
  // frame fields by explicit validation (magic, tag, version, bounded
  // size), which together leave no undetected byte.
  EnsembleModel one = MakeTrainedish(1);
  const std::string path = TempPath("ens_bitflip.bin");
  EnsembleSaveOptions fp16;
  fp16.dtype = ArtifactDtype::kFloat16;
  ASSERT_TRUE(SaveEnsemble(one, path, fp16).ok());
  const std::vector<char> good = ReadAll(path);
  ASSERT_TRUE(LoadEnsemble(path, SmallFactory()).ok());

  const std::string flip_path = TempPath("ens_bitflip_cand.bin");
  for (size_t byte = 0; byte < good.size(); ++byte) {
    std::vector<char> bad = good;
    bad[byte] = static_cast<char>(bad[byte] ^ 0x10);
    WriteAll(flip_path, bad.data(), bad.size());
    Result<EnsembleModel> r = LoadEnsemble(flip_path, SmallFactory());
    ASSERT_FALSE(r.ok()) << "bit flip at byte " << byte << " went undetected";
  }
}

TEST(EnsembleIoFp16Test, TruncatedFp16SectionIsCorruptionNotOom) {
  EnsembleModel original = MakeTrainedish(2);
  const std::string full_path = TempPath("ens_f16_full.bin");
  EnsembleSaveOptions fp16;
  fp16.dtype = ArtifactDtype::kFloat16;
  ASSERT_TRUE(SaveEnsemble(original, full_path, fp16).ok());
  const std::vector<char> full = ReadAll(full_path);

  // Cut inside the last member's fp16 payload, and at every earlier byte in
  // a spread: all must fail cleanly (allocation sizes come from the factory
  // model and the clamped section frame, never from raw file bytes).
  const std::string cut_path = TempPath("ens_f16_cut.bin");
  std::vector<size_t> cuts = {full.size() - 1, full.size() - 7,
                              full.size() / 2};
  for (size_t n = 0; n < 64 && n < full.size(); ++n) cuts.push_back(n);
  for (size_t n : cuts) {
    WriteAll(cut_path, full.data(), n);
    Result<EnsembleModel> r = LoadEnsemble(cut_path, SmallFactory());
    ASSERT_FALSE(r.ok()) << "prefix of " << n << " bytes loaded";
    ASSERT_TRUE(r.status().code() == StatusCode::kCorruption ||
                r.status().code() == StatusCode::kIOError)
        << "prefix " << n << ": " << r.status();
  }
}

TEST(EnsembleIoTest, DerivedGeometryMatchesFactoryConfig) {
  EnsembleModel m = MakeTrainedish(2);
  EXPECT_EQ(DerivedInputDim(m), 6);
  EXPECT_EQ(DerivedNumClasses(m), 3);
}

TEST(EnsembleIoFp16Test, HeaderDimDisagreementIsCorruption) {
  // A header whose recorded feature dim disagrees with the member weights —
  // with a *valid* CRC, so framing alone cannot catch it — must be rejected
  // as Corruption, not asserted on and not silently accepted.
  EnsembleModel one = MakeTrainedish(1);
  const std::string path = TempPath("ens_header_tamper.bin");
  ASSERT_TRUE(SaveEnsemble(one, path).ok());
  std::vector<char> bytes = ReadAll(path);

  // Layout: u32 magic | header frame = u32 tag, u32 version, u64 size,
  // payload { u64 members, u32 dtype, i64 input_dim, i64 num_classes },
  // u32 crc. So the payload starts at byte 20 and input_dim at byte 32.
  const size_t payload_off = 4 + 4 + 4 + 8;
  const size_t payload_size = 8 + 4 + 8 + 8;
  ASSERT_GE(bytes.size(), payload_off + payload_size + 4);
  int64_t recorded = 0;
  std::memcpy(&recorded, bytes.data() + payload_off + 12, sizeof(recorded));
  ASSERT_EQ(recorded, 6);  // SmallCfg().in_features
  const int64_t tampered = 7;
  std::memcpy(bytes.data() + payload_off + 12, &tampered, sizeof(tampered));
  const uint32_t new_crc = Crc32(bytes.data() + payload_off, payload_size);
  std::memcpy(bytes.data() + payload_off + payload_size, &new_crc,
              sizeof(new_crc));
  WriteAll(path, bytes.data(), bytes.size());

  Result<EnsembleModel> r = LoadEnsemble(path, SmallFactory());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace edde
