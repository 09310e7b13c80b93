/// Seeded-mutation fuzz of the run-checkpoint readers (DESIGN.md §11): the
/// generation reader behind RoundCheckpointer::Resume (format version 3)
/// and LoadInflightCheckpoint.
///
/// Every mutated file is re-framed with fresh section CRCs, so the parser
/// sees the hostile bytes instead of stopping at the CRC check. Whatever
/// the bytes, a reader returns a Status — Resume skips the generation or
/// restores it, LoadInflightCheckpoint rejects the file or loads it — and
/// never crashes or sizes an allocation by an unchecked count. Huge member,
/// curve-point and weight counts are also planted on purpose. Unmutated
/// files round-trip. The crash-recovery CI job runs this binary under ASan.

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

#include "ensemble/run_checkpoint.h"
#include "nn/mlp.h"
#include "test_util.h"
#include "utils/durable_io.h"
#include "utils/logging.h"
#include "utils/metrics.h"

namespace edde {
namespace {

constexpr char kMethod[] = "fuzz";

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteWholeFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

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

/// One CRC-framed section: u32 tag | u32 version | u64 size | payload |
/// u32 crc32(payload) (utils/durable_io).
struct Frame {
  uint32_t tag = 0;
  uint32_t version = 0;
  std::string payload;
};

template <typename T>
T Load(const std::string& bytes, size_t offset) {
  T v;
  std::memcpy(&v, bytes.data() + offset, sizeof(T));
  return v;
}

template <typename T>
void Store(std::string* bytes, size_t offset, T v) {
  std::memcpy(&(*bytes)[offset], &v, sizeof(T));
}

/// Splits a well-formed file into its magic word and sections.
std::vector<Frame> ParseFrames(const std::string& bytes, uint32_t* magic) {
  *magic = Load<uint32_t>(bytes, 0);
  std::vector<Frame> frames;
  size_t pos = sizeof(uint32_t);
  while (pos < bytes.size()) {
    Frame f;
    f.tag = Load<uint32_t>(bytes, pos);
    f.version = Load<uint32_t>(bytes, pos + 4);
    const uint64_t size = Load<uint64_t>(bytes, pos + 8);
    f.payload = bytes.substr(pos + 16, size);
    pos += 16 + size + sizeof(uint32_t);
    frames.push_back(std::move(f));
  }
  return frames;
}

/// Frames `frames` again, each with the CRC of its (possibly hostile)
/// payload.
std::string BuildFile(uint32_t magic, const std::vector<Frame>& frames) {
  std::string out(sizeof(uint32_t), '\0');
  Store(&out, 0, magic);
  for (const Frame& f : frames) {
    std::string head(16, '\0');
    Store(&head, 0, f.tag);
    Store(&head, 4, f.version);
    Store<uint64_t>(&head, 8, f.payload.size());
    std::string crc(sizeof(uint32_t), '\0');
    Store(&crc, 0, Crc32(f.payload.data(), f.payload.size()));
    out += head + f.payload + crc;
  }
  return out;
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
        Store(&p, word * 8,
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
  std::string blob;
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
  r.blob = rounds.Resume();
  r.rounds = rounds.rounds();
  r.skipped = skipped->Value() != skipped_before;
  return r;
}

std::string ParameterBytes(Module* m) {
  std::string out;
  for (Parameter* p : m->Parameters()) {
    out.append(reinterpret_cast<const char*>(p->value.data()),
               static_cast<size_t>(p->value.num_elements()) * sizeof(float));
  }
  return out;
}

class CheckpointFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Thousands of skipped generations would each log a warning.
    SetMinLogLevel(LogLevel::kError);
    (void)std::system(("rm -rf '" + fx_.config.checkpoint.dir + "'").c_str());
  }
  void TearDown() override { SetMinLogLevel(LogLevel::kInfo); }

  /// Writes two rounds of a run — two members, W_t, the RNG and a method
  /// blob — and returns the path of the surviving generation.
  std::string WriteRun() {
    std::vector<double> weights(static_cast<size_t>(fx_.data.train.size()));
    for (size_t i = 0; i < weights.size(); ++i) weights[i] = 0.5 + 0.01 * i;
    RoundCheckpointer rounds(
        fx_.config, kMethod, fx_.data.train, fx_.factory, EvalCurve{},
        {.ensemble = &ensemble_, .rng = &rng_, .weights = &weights});
    for (uint64_t seed : {5u, 6u}) {
      ensemble_.AddMember(fx_.factory(seed), 0.25 * static_cast<double>(seed));
      (void)rng_.NextU64();
      rounds.EndRound(2, "blob" + std::to_string(seed));
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
  EXPECT_EQ(r.blob, "blob6");
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
  ASSERT_EQ(frames.size(), 5u);  // header, rng, blob, two members
  // Header: name (u64 length + bytes), fingerprint, round, epochs,
  // num_members, weight count, weights, alphas, num_points.
  const size_t name_end = sizeof(uint64_t) + std::strlen(kMethod);
  const size_t members_at = name_end + 24;
  const size_t weights_at = name_end + 32;
  const size_t points_at =
      weights_at + 8 + 8 * weights_.size() + 8 * ensemble_.alphas().size();
  ASSERT_EQ(Load<uint64_t>(frames[0].payload, members_at), 2u);
  ASSERT_EQ(Load<uint64_t>(frames[0].payload, weights_at), weights_.size());
  ASSERT_EQ(Load<uint64_t>(frames[0].payload, points_at), 0u);
  for (size_t at : {members_at, weights_at, points_at}) {
    for (uint64_t huge : {uint64_t{1} << 61, ~uint64_t{0}, uint64_t{1} << 32}) {
      std::vector<Frame> hostile = frames;
      Store(&hostile[0].payload, at, huge);
      WriteWholeFile(path, BuildFile(magic, hostile));
      const Restored r = ResumeFrom(fx_);
      EXPECT_TRUE(r.skipped) << "offset " << at << " count " << huge;
      EXPECT_EQ(r.rounds, 0);
      EXPECT_EQ(r.ensemble.size(), 0);
    }
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
      Store(&hostile[frame].payload, at, huge);
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

}  // namespace
}  // namespace edde
