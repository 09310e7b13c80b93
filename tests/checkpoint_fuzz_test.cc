/// Seeded-mutation fuzz of the readers of every framed file (DESIGN.md
/// §11): the generation reader behind RoundCheckpointer::Resume (format
/// version 3), LoadInflightCheckpoint, and LoadEnsemble on fp32 and fp16
/// artifacts — the ReadModuleParams codec included.
///
/// Every mutated file is re-framed with fresh section CRCs, so the parser
/// sees the hostile bytes instead of stopping at the CRC check. Whatever
/// the bytes, a reader returns a Status — Resume skips the generation or
/// restores it, LoadInflightCheckpoint and LoadEnsemble reject the file or
/// load it — and never crashes or sizes an allocation by an unchecked
/// count. Huge counts are also planted on purpose. Unmutated files
/// round-trip, and a single flipped bit anywhere in a file, unframed, is
/// always refused. The crash-recovery CI job runs this binary under ASan.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ensemble/ensemble_io.h"
#include "ensemble/run_checkpoint.h"
#include "nn/mlp.h"
#include "test_util.h"
#include "utils/durable_io.h"
#include "utils/logging.h"
#include "utils/metrics.h"

namespace edde {
namespace {

constexpr char kMethod[] = "fuzz";

using testing::BuildFile;
using testing::Frame;
using testing::LoadWord;
using testing::ParameterBytes;
using testing::ParseFrames;
using testing::ReadWholeFile;
using testing::StoreWord;
using testing::WriteWholeFile;

/// The entries of `dir`, "." and ".." excepted.
std::vector<std::string> ListDir(const std::string& dir) {
  std::vector<std::string> names;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      if (entry->d_name[0] != '.') names.push_back(entry->d_name);
    }
    ::closedir(d);
  }
  return names;
}

/// One seeded mutation of a section list: bit flips, huge or random
/// 8-byte words, truncation, extension, a changed tag, a dropped or
/// duplicated section.
void Mutate(std::vector<Frame>* frames, Rng* rng) {
  static const uint64_t kHostile[] = {
      ~uint64_t{0}, uint64_t{1} << 62, uint64_t{1} << 40, 0x7fffffffffffffff,
      0x8000000000000000, 0, 1};
  Frame& f = (*frames)[static_cast<size_t>(
      rng->UniformInt(static_cast<int64_t>(frames->size())))];
  std::string& p = f.payload;
  switch (rng->UniformInt(7)) {
    case 0:
      for (int64_t i = 0, n = 1 + rng->UniformInt(4); i < n && !p.empty();
           ++i) {
        const size_t at = static_cast<size_t>(
            rng->UniformInt(static_cast<int64_t>(p.size())));
        p[at] = static_cast<char>(p[at] ^ (1 << rng->UniformInt(8)));
      }
      break;
    case 1:
      if (p.size() >= 8) {
        const size_t word = static_cast<size_t>(
            rng->UniformInt(static_cast<int64_t>(p.size() / 8)));
        StoreWord(&p, word * 8,
              kHostile[rng->UniformInt(sizeof(kHostile) / sizeof(uint64_t))]);
      }
      break;
    case 2:
      p.resize(static_cast<size_t>(
          rng->UniformInt(static_cast<int64_t>(p.size()) + 1)));
      break;
    case 3:
      for (int64_t i = 0, n = 1 + rng->UniformInt(64); i < n; ++i) {
        p.push_back(static_cast<char>(rng->UniformInt(256)));
      }
      break;
    case 4:
      f.tag = static_cast<uint32_t>(rng->UniformInt(8));
      break;
    case 5:
      frames->erase(frames->begin() +
                    rng->UniformInt(static_cast<int64_t>(frames->size())));
      break;
    default:
      frames->push_back(f);
      break;
  }
}

struct Fixture {
  testing::BlobSplit data = testing::MakeBlobsSplit(64, 0, 5, 3, 3);
  ModelFactory factory = [](uint64_t seed) {
    MlpConfig cfg;
    cfg.in_features = 5;
    cfg.hidden = {7};
    cfg.num_classes = 3;
    return std::make_unique<Mlp>(cfg, seed);
  };
  MethodConfig config = [] {
    MethodConfig mc;
    mc.num_members = 3;
    mc.seed = 17;
    mc.checkpoint.dir = ::testing::TempDir() + "/checkpoint_fuzz";
    mc.checkpoint.keep = 1;  // only the newest generation stays
    return mc;
  }();
};

/// What a Resume restored into fresh state.
struct Restored {
  EnsembleModel ensemble;
  Rng rng{0};
  std::vector<double> weights;
  std::string method_state;
  int rounds = 0;
  bool skipped = false;
};

Restored ResumeFrom(const Fixture& fx) {
  Restored r;
  r.weights.assign(static_cast<size_t>(fx.data.train.size()), 0.0);
  Counter* const skipped = MetricsRegistry::Global().GetCounter(
      "checkpoint.corrupt_generations_skipped");
  const int64_t skipped_before = skipped->Value();
  RoundCheckpointer rounds(
      fx.config, kMethod, fx.data.train, fx.factory, EvalCurve{},
      {.ensemble = &r.ensemble, .rng = &r.rng, .weights = &r.weights});
  SectionReader method_state = rounds.Resume();
  (void)method_state.ReadString(&r.method_state);
  r.rounds = rounds.rounds();
  r.skipped = skipped->Value() != skipped_before;
  return r;
}

class CheckpointFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Thousands of skipped generations would each log a warning.
    SetMinLogLevel(LogLevel::kError);
    (void)std::system(("rm -rf '" + fx_.config.checkpoint.dir + "'").c_str());
  }
  void TearDown() override { SetMinLogLevel(LogLevel::kInfo); }

  /// Writes two rounds of a run — two members, W_t, the RNG and a
  /// method-state section — and returns the path of the surviving
  /// generation.
  std::string WriteRun() {
    std::vector<double> weights(static_cast<size_t>(fx_.data.train.size()));
    for (size_t i = 0; i < weights.size(); ++i) weights[i] = 0.5 + 0.01 * i;
    RoundCheckpointer rounds(
        fx_.config, kMethod, fx_.data.train, fx_.factory, EvalCurve{},
        {.ensemble = &ensemble_, .rng = &rng_, .weights = &weights});
    for (uint64_t seed : {5u, 6u}) {
      ensemble_.AddMember(fx_.factory(seed), 0.25 * static_cast<double>(seed));
      (void)rng_.NextU64();
      SectionWriter method_state;
      method_state.WriteString("state" + std::to_string(seed));
      rounds.EndRound(2, method_state);
    }
    weights_ = weights;
    return GenerationFile();
  }

  /// The one generation file under the checkpoint dir's one run dir.
  std::string GenerationFile() const {
    std::string found;
    const std::string dir = fx_.config.checkpoint.dir;
    for (const std::string& run : ListDir(dir)) {
      for (const std::string& file : ListDir(dir + "/" + run)) {
        if (file.rfind("ckpt_", 0) == 0) found = dir + "/" + run + "/" + file;
      }
    }
    EXPECT_FALSE(found.empty()) << "no generation under " << dir;
    return found;
  }

  Fixture fx_;
  EnsembleModel ensemble_;
  Rng rng_{99};
  std::vector<double> weights_;
};

TEST_F(CheckpointFuzzTest, ValidGenerationRoundTrips) {
  (void)WriteRun();
  Restored r = ResumeFrom(fx_);
  EXPECT_FALSE(r.skipped);
  EXPECT_EQ(r.rounds, 2);
  EXPECT_EQ(r.method_state, "state6");
  EXPECT_EQ(r.weights, weights_);
  EXPECT_EQ(r.rng.NextU64(), rng_.NextU64());
  ASSERT_EQ(r.ensemble.size(), ensemble_.size());
  EXPECT_EQ(r.ensemble.alphas(), ensemble_.alphas());
  for (int64_t i = 0; i < r.ensemble.size(); ++i) {
    EXPECT_EQ(ParameterBytes(r.ensemble.member(i)),
              ParameterBytes(ensemble_.member(i)));
  }
}

TEST_F(CheckpointFuzzTest, HugeCountsInTheGenerationHeaderAreSkipped) {
  const std::string path = WriteRun();
  const std::string original = ReadWholeFile(path);
  uint32_t magic = 0;
  const std::vector<Frame> frames = ParseFrames(original, &magic);
  // header, rng, method state, two members
  ASSERT_EQ(frames.size(), 5u);
  // Header: name (u64 length + bytes), fingerprint, round, epochs,
  // num_members, weight count, weights, alphas, num_points.
  const size_t name_end = sizeof(uint64_t) + std::strlen(kMethod);
  const size_t members_at = name_end + 24;
  const size_t weights_at = name_end + 32;
  const size_t points_at =
      weights_at + 8 + 8 * weights_.size() + 8 * ensemble_.alphas().size();
  ASSERT_EQ(LoadWord<uint64_t>(frames[0].payload, members_at), 2u);
  ASSERT_EQ(LoadWord<uint64_t>(frames[0].payload, weights_at), weights_.size());
  ASSERT_EQ(LoadWord<uint64_t>(frames[0].payload, points_at), 0u);
  for (size_t at : {members_at, weights_at, points_at}) {
    for (uint64_t huge : {uint64_t{1} << 61, ~uint64_t{0}, uint64_t{1} << 32}) {
      std::vector<Frame> hostile = frames;
      StoreWord(&hostile[0].payload, at, huge);
      WriteWholeFile(path, BuildFile(magic, hostile));
      const Restored r = ResumeFrom(fx_);
      EXPECT_TRUE(r.skipped) << "offset " << at << " count " << huge;
      EXPECT_EQ(r.rounds, 0);
      EXPECT_EQ(r.ensemble.size(), 0);
    }
  }
}

TEST_F(CheckpointFuzzTest, EveryByteBitFlipIsSkipped) {
  // One flipped bit anywhere — the magic, a frame's tag, version, size or
  // CRC, any payload byte — and Resume must skip the generation. The
  // version fields sit outside the payload CRCs, so only the frame check
  // of every section's version catches a flip there.
  const std::string path = WriteRun();
  const std::string good = ReadWholeFile(path);
  for (size_t byte = 0; byte < good.size(); ++byte) {
    std::string bad = good;
    bad[byte] = static_cast<char>(bad[byte] ^ 0x10);
    WriteWholeFile(path, bad);
    const Restored r = ResumeFrom(fx_);
    ASSERT_TRUE(r.skipped) << "bit flip at byte " << byte << " went undetected";
    ASSERT_EQ(r.rounds, 0) << "byte " << byte;
  }
}

TEST_F(CheckpointFuzzTest, MutatedGenerationsReturnAStatus) {
  const std::string path = WriteRun();
  const std::string original = ReadWholeFile(path);
  uint32_t magic = 0;
  const std::vector<Frame> frames = ParseFrames(original, &magic);
  Rng rng(2024);
  int restored = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    std::vector<Frame> hostile = frames;
    for (int64_t m = 0, n = 1 + rng.UniformInt(3); m < n && !hostile.empty();
         ++m) {
      Mutate(&hostile, &rng);
    }
    std::string bytes = BuildFile(magic, hostile);
    if (rng.UniformInt(8) == 0) {  // and now and then a torn file
      bytes.resize(static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(bytes.size()))));
    }
    WriteWholeFile(path, bytes);
    const Restored r = ResumeFrom(fx_);
    // Either the generation was skipped and nothing restored, or it was
    // restored whole and within the run's bounds.
    if (r.skipped) {
      EXPECT_EQ(r.rounds, 0) << "iteration " << iter;
      EXPECT_EQ(r.ensemble.size(), 0) << "iteration " << iter;
    } else {
      ++restored;
      EXPECT_GE(r.rounds, 1) << "iteration " << iter;
      EXPECT_LE(r.rounds, fx_.config.num_members) << "iteration " << iter;
      EXPECT_LE(r.ensemble.size(), r.rounds) << "iteration " << iter;
      EXPECT_EQ(r.weights.size(), weights_.size()) << "iteration " << iter;
    }
  }
  // Some mutations (a flipped weight or parameter bit) leave a valid file.
  EXPECT_GT(restored, 0);
}

class InflightFuzzTest : public CheckpointFuzzTest {
 protected:
  static constexpr uint64_t kFingerprint = 0x1234abcd;

  /// Saves the inflight checkpoint of a model one SGD step in.
  std::string WriteInflight() {
    model_ = fx_.factory(8);
    Sgd optimizer(model_.get(), SgdConfig{});
    for (Parameter* p : model_->Parameters()) p->grad.Fill(0.5f);
    optimizer.Step();
    ::mkdir(fx_.config.checkpoint.dir.c_str(), 0755);
    const std::string path = fx_.config.checkpoint.dir + "/inflight.edde";
    EXPECT_TRUE(
        SaveInflightCheckpoint(path, model_.get(), optimizer, rng_, 3,
                               kFingerprint)
            .ok());
    SectionWriter velocity;
    optimizer.SaveState(&velocity);
    velocity_ = velocity.payload();
    return path;
  }

  std::unique_ptr<Module> model_;
  std::string velocity_;
};

TEST_F(InflightFuzzTest, ValidInflightRoundTrips) {
  const std::string path = WriteInflight();
  std::unique_ptr<Module> model = fx_.factory(9);
  Sgd optimizer(model.get(), SgdConfig{});
  Rng rng(0);
  int next_epoch = 0;
  ASSERT_TRUE(LoadInflightCheckpoint(path, model.get(), &optimizer, &rng,
                                     &next_epoch, kFingerprint)
                  .ok());
  EXPECT_EQ(next_epoch, 3);
  EXPECT_EQ(rng.NextU64(), rng_.NextU64());
  EXPECT_EQ(ParameterBytes(model.get()), ParameterBytes(model_.get()));
  SectionWriter velocity;
  optimizer.SaveState(&velocity);
  EXPECT_EQ(velocity.payload(), velocity_);
}

TEST_F(InflightFuzzTest, EveryByteBitFlipIsRejected) {
  // As for generations: every single-bit flip, version fields included,
  // is refused, and a refused file leaves the model as it was.
  const std::string path = WriteInflight();
  const std::string good = ReadWholeFile(path);
  const std::string untouched = ParameterBytes(fx_.factory(9).get());
  for (size_t byte = 0; byte < good.size(); ++byte) {
    std::string bad = good;
    bad[byte] = static_cast<char>(bad[byte] ^ 0x10);
    WriteWholeFile(path, bad);
    std::unique_ptr<Module> model = fx_.factory(9);
    Sgd optimizer(model.get(), SgdConfig{});
    Rng rng(0);
    int next_epoch = -1;
    ASSERT_FALSE(LoadInflightCheckpoint(path, model.get(), &optimizer, &rng,
                                        &next_epoch, kFingerprint)
                     .ok())
        << "bit flip at byte " << byte << " went undetected";
    ASSERT_EQ(ParameterBytes(model.get()), untouched) << "byte " << byte;
    ASSERT_EQ(next_epoch, -1) << "byte " << byte;
  }
}

TEST_F(InflightFuzzTest, MutatedInflightFilesReturnAStatus) {
  const std::string path = WriteInflight();
  uint32_t magic = 0;
  const std::vector<Frame> frames = ParseFrames(ReadWholeFile(path), &magic);
  ASSERT_EQ(frames.size(), 4u);  // header, rng, params, momentum
  Rng rng(77);
  int rejected = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    std::vector<Frame> hostile = frames;
    for (int64_t m = 0, n = 1 + rng.UniformInt(3); m < n && !hostile.empty();
         ++m) {
      Mutate(&hostile, &rng);
    }
    WriteWholeFile(path, BuildFile(magic, hostile));
    std::unique_ptr<Module> model = fx_.factory(9);
    Sgd optimizer(model.get(), SgdConfig{});
    Rng restored(0);
    int next_epoch = -1;
    const Status s = LoadInflightCheckpoint(path, model.get(), &optimizer,
                                            &restored, &next_epoch,
                                            kFingerprint);
    if (!s.ok()) {
      ++rejected;
      EXPECT_EQ(next_epoch, -1) << "iteration " << iter << ": " << s;
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST_F(InflightFuzzTest, HugeWeightCountsAreRejected) {
  const std::string path = WriteInflight();
  uint32_t magic = 0;
  const std::vector<Frame> frames = ParseFrames(ReadWholeFile(path), &magic);
  ASSERT_EQ(frames.size(), 4u);
  // The parameter count leads the params section; the momentum slot count
  // leads the optimizer's, and the first slot's element count follows it.
  const std::vector<std::pair<size_t, size_t>> counts = {
      {2, 0}, {3, 0}, {3, 8}};
  for (const auto& [frame, at] : counts) {
    for (uint64_t huge : {uint64_t{1} << 61, ~uint64_t{0}, uint64_t{1} << 32}) {
      std::vector<Frame> hostile = frames;
      StoreWord(&hostile[frame].payload, at, huge);
      WriteWholeFile(path, BuildFile(magic, hostile));
      std::unique_ptr<Module> model = fx_.factory(9);
      Sgd optimizer(model.get(), SgdConfig{});
      Rng rng(0);
      int next_epoch = 0;
      EXPECT_FALSE(LoadInflightCheckpoint(path, model.get(), &optimizer, &rng,
                                          &next_epoch, kFingerprint)
                       .ok())
          << "section " << frame << " offset " << at << " count " << huge;
    }
  }
}

class EnsembleFuzzTest : public CheckpointFuzzTest {
 protected:
  /// Saves a two-member ensemble as `dtype` and returns its path.
  std::string WriteArtifact(ArtifactDtype dtype) {
    ensemble_.AddMember(fx_.factory(5), 0.75);
    ensemble_.AddMember(fx_.factory(6), 1.5);
    ::mkdir(fx_.config.checkpoint.dir.c_str(), 0755);
    const std::string path = fx_.config.checkpoint.dir + "/ensemble.edde";
    EnsembleSaveOptions options;
    options.dtype = dtype;
    EXPECT_TRUE(SaveEnsemble(ensemble_, path, options).ok());
    return path;
  }
};

constexpr ArtifactDtype kDtypes[] = {ArtifactDtype::kFloat32,
                                     ArtifactDtype::kFloat16};

TEST_F(EnsembleFuzzTest, ValidArtifactsRoundTrip) {
  for (ArtifactDtype dtype : kDtypes) {
    const std::string path = WriteArtifact(dtype);
    const std::string original = ReadWholeFile(path);
    Result<EnsembleModel> loaded = LoadEnsemble(path, fx_.factory);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    const EnsembleModel& e = loaded.ValueOrDie();
    EXPECT_EQ(e.alphas(), ensemble_.alphas());
    if (dtype == ArtifactDtype::kFloat32) {
      for (int64_t i = 0; i < e.size(); ++i) {
        EXPECT_EQ(ParameterBytes(e.member(i)),
                  ParameterBytes(ensemble_.member(i)));
      }
    }
    // Saving what was loaded reproduces the file byte for byte (an fp16
    // value converts to float and back exactly).
    EnsembleSaveOptions options;
    options.dtype = dtype;
    ASSERT_TRUE(SaveEnsemble(e, path, options).ok());
    EXPECT_EQ(ReadWholeFile(path), original);
    ensemble_ = EnsembleModel();
  }
}

TEST_F(EnsembleFuzzTest, HugeCountsAreRefused) {
  for (ArtifactDtype dtype : kDtypes) {
    const std::string path = WriteArtifact(dtype);
    uint32_t magic = 0;
    const std::vector<Frame> frames = ParseFrames(ReadWholeFile(path), &magic);
    ASSERT_EQ(frames.size(), 3u);  // header, two members
    // The header leads with the member count. A member section holds its
    // α (f32), the parameter count, then the first parameter's name
    // length, name and rank.
    const std::string first_name = ensemble_.member(0)->Parameters()[0]->name;
    const std::vector<std::pair<size_t, size_t>> counts = {
        {0, 0}, {1, 4}, {1, 12}, {1, 20 + first_name.size()}};
    ASSERT_EQ(LoadWord<uint64_t>(frames[1].payload, 12), first_name.size());
    for (const auto& [frame, at] : counts) {
      for (uint64_t huge :
           {uint64_t{1} << 61, ~uint64_t{0}, uint64_t{1} << 32}) {
        std::vector<Frame> hostile = frames;
        StoreWord(&hostile[frame].payload, at, huge);
        WriteWholeFile(path, BuildFile(magic, hostile));
        EXPECT_FALSE(LoadEnsemble(path, fx_.factory).ok())
            << "section " << frame << " offset " << at << " count " << huge;
      }
    }
    ensemble_ = EnsembleModel();
  }
}

TEST_F(EnsembleFuzzTest, MutatedArtifactsReturnAStatus) {
  Rng rng(31);
  for (ArtifactDtype dtype : kDtypes) {
    const std::string path = WriteArtifact(dtype);
    uint32_t magic = 0;
    const std::vector<Frame> frames = ParseFrames(ReadWholeFile(path), &magic);
    int loaded = 0;
    int refused = 0;
    for (int iter = 0; iter < 1500; ++iter) {
      std::vector<Frame> hostile = frames;
      for (int64_t m = 0, n = 1 + rng.UniformInt(3);
           m < n && !hostile.empty(); ++m) {
        Mutate(&hostile, &rng);
      }
      std::string bytes = BuildFile(magic, hostile);
      if (rng.UniformInt(8) == 0) {  // and now and then a torn file
        bytes.resize(static_cast<size_t>(
            rng.UniformInt(static_cast<int64_t>(bytes.size()))));
      }
      WriteWholeFile(path, bytes);
      Result<EnsembleModel> r = LoadEnsemble(path, fx_.factory);
      if (!r.ok()) {
        ++refused;
        continue;
      }
      // A loaded ensemble is whole: members built by the factory, each
      // with a positive weight.
      ++loaded;
      const EnsembleModel& e = r.ValueOrDie();
      ASSERT_GE(e.size(), 1) << "iteration " << iter;
      for (int64_t i = 0; i < e.size(); ++i) {
        ASSERT_GT(e.alpha(i), 0.0) << "iteration " << iter;
      }
    }
    EXPECT_GT(loaded, 0);
    EXPECT_GT(refused, 0);
    ensemble_ = EnsembleModel();
  }
}

}  // namespace
}  // namespace edde
