/// Kill-and-resume torture tests for the crash-consistent checkpoint
/// subsystem (DESIGN.md §11).
///
/// The load-bearing claim: a training run killed at ANY failpoint site —
/// including mid-rename and with torn (short) writes — and then restarted
/// with the same flags produces a bit-identical ensemble: same serialized
/// member bytes, same α vector, same predictions. Each crash scenario runs
/// in a death-test child (threadsafe style, own process, real _exit), then
/// the parent resumes from whatever files the child left behind.
///
/// Death-test discipline: in threadsafe style the child re-executes the
/// whole test up to its death statement, so everything a scenario mutates
/// on disk lives INSIDE its EXPECT_EXIT body (children skip other death
/// statements' bodies, so scenarios can't clobber each other), and all
/// resume/compare work sits after the last death statement (children never
/// reach it).

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/edde.h"
#include "ensemble/bagging.h"
#include "ensemble/ensemble_io.h"
#include "nn/mlp.h"
#include "test_util.h"
#include "utils/crash.h"
#include "utils/durable_io.h"
#include "utils/failpoint.h"
#include "utils/threadpool.h"

namespace edde {
namespace {

using testing::MakeBlobsSplit;

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Test-only helper; the dirs are a couple of levels deep at most.
void RemoveTree(const std::string& dir) {
  const std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
}

std::string DirFor(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = DirFor(name);
  RemoveTree(dir);
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

/// One small, fast EDDE workload shared by every scenario. Deterministic:
/// the same seed always yields the same data, members, and predictions.
struct Workload {
  testing::BlobSplit data = MakeBlobsSplit(256, 128, 6, 3, 11, /*spread=*/1.6f);
  ModelFactory factory = [](uint64_t seed) {
    MlpConfig cfg;
    cfg.in_features = 6;
    cfg.hidden = {12};
    cfg.num_classes = 3;
    return std::make_unique<Mlp>(cfg, seed);
  };

  MethodConfig Config(const std::string& checkpoint_dir) const {
    MethodConfig mc;
    mc.num_members = 3;
    mc.epochs_per_member = 3;
    mc.batch_size = 32;
    mc.sgd.learning_rate = 0.1f;
    mc.sgd.weight_decay = 0.0f;
    mc.seed = 9;
    mc.checkpoint.dir = checkpoint_dir;
    mc.checkpoint.every_rounds = 1;
    mc.checkpoint.every_epochs = 1;
    mc.checkpoint.keep = 10;  // keep everything; rotation has its own test
    return mc;
  }

  EnsembleModel TrainEdde(const std::string& checkpoint_dir) const {
    EddeOptions eo;
    eo.gamma = 0.1f;
    eo.beta = 0.7;
    EddeMethod method(Config(checkpoint_dir), eo);
    return method.Train(data.train, factory);
  }

  EnsembleModel TrainBagging(const std::string& checkpoint_dir) const {
    Bagging method(Config(checkpoint_dir));
    return method.Train(data.train, factory);
  }
};

/// Serializes `model` and returns the bytes — the strongest identity check
/// available: every member parameter and every α, bit for bit.
std::string EnsembleBytes(const EnsembleModel& model,
                          const std::string& scratch_name) {
  const std::string path = DirFor(scratch_name);
  EXPECT_TRUE(SaveEnsemble(model, path).ok());
  return ReadWholeFile(path);
}

void ExpectBitIdentical(const EnsembleModel& resumed,
                        const EnsembleModel& reference,
                        const Workload& workload, const std::string& label) {
  ASSERT_EQ(resumed.size(), reference.size()) << label;
  EXPECT_EQ(resumed.alphas(), reference.alphas()) << label;
  EXPECT_EQ(EnsembleBytes(resumed, "resumed_" + label + ".edde"),
            EnsembleBytes(reference, "reference_" + label + ".edde"))
      << label << ": serialized members/alphas differ";
  const Tensor a = resumed.PredictProbs(workload.data.test);
  const Tensor b = reference.PredictProbs(workload.data.test);
  ASSERT_EQ(a.num_elements(), b.num_elements()) << label;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.num_elements()) * sizeof(float)),
            0)
      << label << ": predictions differ";
}

class CheckpointTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    failpoint::Clear();
    ClearShutdownRequest();
  }
  void TearDown() override {
    failpoint::Clear();
    ClearShutdownRequest();
  }
  Workload workload_;
};

// ---------------------------------------------------------------------------
// The tentpole: crash at every failpoint site, resume, compare bit-for-bit.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTortureTest, CrashAtEverySiteThenResumeIsBitIdentical) {
  // Phase 1: one child per site. Each child wipes its own dir, arms
  // `<site>=crash:2` (the second hit, so some durable state exists by then)
  // and trains until the fault kills it mid-run with a raw _exit — no
  // flushes, no destructors; the closest a test gets to `kill -9`.
  std::vector<std::string> dirs;
  // Only the training-path prefix of the catalog: serving/shutdown sites
  // are never reached by TrainEdde (their crash specs would just never
  // fire) and have their own failpoint-driven tests.
  for (size_t i = 0; i < failpoint::kNumTrainingSites; ++i) {
    const std::string site = failpoint::kSites[i];
    dirs.push_back(DirFor("torture_site_" + std::to_string(i)));
    EXPECT_EXIT(
        {
          RemoveTree(dirs.back());
          (void)failpoint::SetSpec(site + "=crash:2");
          (void)workload_.TrainEdde(dirs.back());
          _exit(7);  // the site was never hit twice — fail the EXPECT_EXIT
        },
        ::testing::ExitedWithCode(failpoint::kCrashExitCode), "")
        << "site " << site;
  }

  // Phase 2 (parent only): resume each wreck with faults disarmed and
  // compare against an uninterrupted run. Deterministic replay makes even
  // a crash *before* any checkpoint landed resolve to the identical result.
  const EnsembleModel reference = workload_.TrainEdde("");
  for (size_t i = 0; i < dirs.size(); ++i) {
    EnsembleModel resumed = workload_.TrainEdde(dirs[i]);
    ExpectBitIdentical(resumed, reference, workload_,
                       std::string(failpoint::kSites[i]));
  }
}

TEST_F(CheckpointTortureTest, BaggingCrashResumeIsBitIdenticalAcrossThreads) {
  const std::string dir = DirFor("torture_bagging");
  EXPECT_EXIT(
      {
        RemoveTree(dir);
        SetNumThreads(2);
        (void)failpoint::SetSpec("checkpoint.commit=crash:2");
        (void)workload_.TrainBagging(dir);
        _exit(7);
      },
      ::testing::ExitedWithCode(failpoint::kCrashExitCode), "");

  // Resume at a different pool size than the crashed run: slot-keyed
  // generations plus serially pre-drawn per-member seeds make the result
  // thread-count-independent.
  SetNumThreads(5);
  EnsembleModel resumed = workload_.TrainBagging(dir);
  SetNumThreads(0);  // restore the default pool
  const EnsembleModel reference = workload_.TrainBagging("");
  ExpectBitIdentical(resumed, reference, workload_, "bagging");
}

TEST_F(CheckpointTortureTest, GracefulShutdownThenResumeIsBitIdentical) {
  const std::string dir = DirFor("torture_shutdown");
  EXPECT_EXIT(
      {
        RemoveTree(dir);
        // As if SIGTERM arrived just before training: the first epoch
        // completes, the inflight checkpoint lands, and the method exits
        // 128+SIGTERM after flushing telemetry.
        RequestShutdown(SIGTERM);
        (void)workload_.TrainEdde(dir);
        _exit(7);
      },
      ::testing::ExitedWithCode(128 + SIGTERM), "");

  EnsembleModel resumed = workload_.TrainEdde(dir);
  const EnsembleModel reference = workload_.TrainEdde("");
  ExpectBitIdentical(resumed, reference, workload_, "shutdown");
}

// ---------------------------------------------------------------------------
// Corruption: fall back, never crash.
// ---------------------------------------------------------------------------

std::vector<std::string> ListGenerationFiles(const std::string& method_dir) {
  std::vector<std::string> files;
  for (int round = 0; round < 64; ++round) {
    char name[32];
    std::snprintf(name, sizeof(name), "ckpt_%08d.edde", round);
    const std::string path = method_dir + "/" + name;
    if (::access(path.c_str(), F_OK) == 0) files.push_back(path);
  }
  return files;
}

void FlipByteInMiddle(const std::string& path) {
  std::string bytes = ReadWholeFile(path);
  ASSERT_GT(bytes.size(), 64u) << path;
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST_F(CheckpointTortureTest, CorruptNewestGenerationFallsBackToOlder) {
  const std::string dir = FreshDir("torture_corrupt_newest");
  const EnsembleModel reference = workload_.TrainEdde(dir);
  const std::vector<std::string> files = ListGenerationFiles(dir + "/edde");
  ASSERT_GE(files.size(), 2u);
  FlipByteInMiddle(files.back());

  // The resumed run must skip the corrupt newest generation with a warning,
  // restart from the previous one, and still land on the identical result.
  EnsembleModel resumed = workload_.TrainEdde(dir);
  ExpectBitIdentical(resumed, reference, workload_, "corrupt_newest");
}

TEST_F(CheckpointTortureTest, EveryGenerationCorruptRetrainsFromScratch) {
  const std::string dir = FreshDir("torture_corrupt_all");
  const EnsembleModel reference = workload_.TrainEdde(dir);
  const std::vector<std::string> files = ListGenerationFiles(dir + "/edde");
  ASSERT_GE(files.size(), 2u);
  for (const std::string& f : files) FlipByteInMiddle(f);
  // A completed run leaves no inflight files, but corrupt any stragglers so
  // this scenario really is "nothing usable on disk".
  for (int slot = 0; slot < 8; ++slot) {
    char name[36];
    std::snprintf(name, sizeof(name), "inflight_%04d.edde", slot);
    const std::string path = dir + "/edde/" + name;
    if (::access(path.c_str(), F_OK) == 0) FlipByteInMiddle(path);
  }

  EnsembleModel resumed = workload_.TrainEdde(dir);
  ExpectBitIdentical(resumed, reference, workload_, "corrupt_all");
}

TEST_F(CheckpointTortureTest, TornWritesEverywhereStillRecoverable) {
  // Every durable write in the first run is torn (its tail dropped before
  // commit). Nothing on disk is trustworthy — but nothing may crash, and a
  // later clean run must fall back to scratch and match.
  const std::string dir = FreshDir("torture_torn");
  ASSERT_TRUE(failpoint::SetSpec("durable.write=short_write:13").ok());
  const EnsembleModel first = workload_.TrainEdde(dir);
  failpoint::Clear();

  EnsembleModel resumed = workload_.TrainEdde(dir);
  const EnsembleModel reference = workload_.TrainEdde("");
  ExpectBitIdentical(resumed, reference, workload_, "torn");
  // And the torn-writes run itself was not perturbed by the injection.
  ExpectBitIdentical(first, reference, workload_, "torn_first_run");
}

TEST_F(CheckpointTortureTest, ShortWriteThroughEnsembleArtifactIsRejected) {
  // The ensemble artifact round-trip under a torn write. The save
  // "succeeds" (that is the point of a torn write), but the load must
  // return an error instead of silently restoring garbage.
  const std::string path = DirFor("torn_ensemble.edde");
  EnsembleModel original;
  original.AddMember(workload_.factory(/*seed=*/123), 1.0);
  ASSERT_TRUE(failpoint::SetSpec("durable.write=short_write:9").ok());
  ASSERT_TRUE(SaveEnsemble(original, path).ok());
  failpoint::Clear();
  EXPECT_FALSE(LoadEnsemble(path, workload_.factory).ok());

  // Clean round-trip still works and is byte-faithful.
  ASSERT_TRUE(SaveEnsemble(original, path).ok());
  Result<EnsembleModel> restored = LoadEnsemble(path, workload_.factory);
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectBitIdentical(restored.ValueOrDie(), original, workload_, "torn_clean");
}

// ---------------------------------------------------------------------------
// Invariants: zero behavior change, rotation.
// ---------------------------------------------------------------------------

TEST_F(CheckpointTortureTest, CheckpointingItselfChangesNothing) {
  // The acceptance bar for "observation-only": training with checkpoints
  // enabled must be bit-identical to training with them off.
  const std::string dir = FreshDir("torture_noop");
  const EnsembleModel with_ckpt = workload_.TrainEdde(dir);
  const EnsembleModel without = workload_.TrainEdde("");
  ExpectBitIdentical(with_ckpt, without, workload_, "noop");
}

TEST_F(CheckpointTortureTest, RotationKeepsOnlyNewestGenerations) {
  const std::string dir = FreshDir("torture_rotate");
  EddeOptions eo;
  eo.gamma = 0.1f;
  eo.beta = 0.7;
  MethodConfig mc = workload_.Config(dir);
  mc.checkpoint.keep = 2;
  EddeMethod method(mc, eo);
  (void)method.Train(workload_.data.train, workload_.factory);
  const std::vector<std::string> files = ListGenerationFiles(dir + "/edde");
  EXPECT_EQ(files.size(), 2u) << "keep=2 must prune older generations";
}

}  // namespace
}  // namespace edde
