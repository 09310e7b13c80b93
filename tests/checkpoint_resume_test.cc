/// Kill-and-resume torture tests for the crash-consistent checkpoint
/// subsystem (DESIGN.md §11).
///
/// The load-bearing claim: a training run of any of the seven methods,
/// killed at ANY failpoint site — including mid-rename and with torn
/// (short) writes — or stopped by SIGTERM, and then restarted with the same
/// flags produces a bit-identical ensemble (same serialized member bytes,
/// same α vector, same predictions) and the same Fig. 7 curve points. Each
/// crash scenario runs in a death-test child (threadsafe style, own
/// process, real _exit), then the parent resumes from whatever files the
/// child left behind.
///
/// Death-test discipline: in threadsafe style the child re-executes the
/// whole test up to its death statement, so everything a scenario mutates
/// on disk lives INSIDE its EXPECT_EXIT body (children skip other death
/// statements' bodies, so scenarios can't clobber each other), and all
/// resume/compare work sits after the last death statement (children never
/// reach it).

#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/edde.h"
#include "data/synthetic_text.h"
#include "ensemble/adaboost_m1.h"
#include "ensemble/adaboost_nc.h"
#include "ensemble/bagging.h"
#include "ensemble/bans.h"
#include "ensemble/ensemble_io.h"
#include "ensemble/single.h"
#include "ensemble/snapshot.h"
#include "nn/mlp.h"
#include "nn/textcnn.h"
#include "test_util.h"
#include "utils/crash.h"
#include "utils/durable_io.h"
#include "utils/failpoint.h"
#include "utils/metrics.h"
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

/// The one run directory a run made under `dir` (named by its fingerprint).
std::string RunDir(const std::string& dir) {
  std::vector<std::string> subdirs;
  DIR* d = ::opendir(dir.c_str());
  while (d != nullptr) {
    const dirent* entry = ::readdir(d);
    if (entry == nullptr) break;
    if (entry->d_name[0] != '.') subdirs.push_back(dir + "/" + entry->d_name);
  }
  if (d != nullptr) ::closedir(d);
  EXPECT_EQ(subdirs.size(), 1u) << dir;
  return subdirs.empty() ? dir : subdirs.front();
}

/// The seven methods of the paper's comparison, each resumed by the shared
/// round loop (ensemble/run_checkpoint).
enum class Method { kSingle, kBagging, kAdaBoostM1, kAdaBoostNC, kSnapshot,
                    kBans, kEdde };

std::string MethodTag(Method method) {
  switch (method) {
    case Method::kSingle: return "single";
    case Method::kBagging: return "bagging";
    case Method::kAdaBoostM1: return "m1";
    case Method::kAdaBoostNC: return "nc";
    case Method::kSnapshot: return "snapshot";
    case Method::kBans: return "bans";
    case Method::kEdde: return "edde";
  }
  return "";
}

/// A trained ensemble and its Fig. 7 curve points on the test split.
struct TrainedRun {
  EnsembleModel model;
  std::vector<CurvePoint> curve;
};

/// One small, fast workload shared by every scenario. Deterministic: the
/// same seed always yields the same data, members, and predictions.
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
    mc.checkpoint.every = 1;
    mc.checkpoint.keep = 10;  // keep everything; rotation has its own test
    return mc;
  }

  TrainedRun Train(Method method, const std::string& checkpoint_dir) const {
    const MethodConfig mc = Config(checkpoint_dir);
    std::unique_ptr<EnsembleMethod> m;
    switch (method) {
      case Method::kSingle: m = std::make_unique<SingleModel>(mc); break;
      case Method::kBagging: m = std::make_unique<Bagging>(mc); break;
      case Method::kAdaBoostM1: m = std::make_unique<AdaBoostM1>(mc); break;
      case Method::kAdaBoostNC: m = std::make_unique<AdaBoostNC>(mc); break;
      case Method::kSnapshot:
        m = std::make_unique<SnapshotEnsemble>(mc);
        break;
      case Method::kBans: m = std::make_unique<Bans>(mc); break;
      case Method::kEdde: {
        EddeOptions eo;
        eo.gamma = 0.1f;
        eo.beta = 0.7;
        m = std::make_unique<EddeMethod>(mc, eo);
        break;
      }
    }
    TrainedRun run;
    run.model = m->Train(data.train, factory, EvalCurve{&data.test, &run.curve});
    return run;
  }

  EnsembleModel TrainEdde(const std::string& checkpoint_dir) const {
    return Train(Method::kEdde, checkpoint_dir).model;
  }
};

/// The same budget on TextCNN members with dropout 0.5, whose masks a
/// resumed member must draw exactly as an uninterrupted one does.
Workload TextWorkload() {
  SyntheticTextConfig text;
  text.vocab_size = 40;
  text.seq_len = 10;
  text.train_size = 256;  // 8 batches an epoch, as the MLP workload
  text.test_size = 64;
  text.sentiment_vocab = 6;
  text.negator_vocab = 2;
  text.seed = 5;
  const TrainTestSplit split = MakeSyntheticTextData(text);
  Workload w;
  w.data = {split.train, split.test};
  w.factory = [](uint64_t seed) {
    TextCnnConfig cfg;
    cfg.vocab_size = 40;
    cfg.embed_dim = 4;
    cfg.seq_len = 10;
    cfg.kernel_sizes = {2, 3};
    cfg.filters_per_size = 4;
    cfg.dropout_rate = 0.5f;
    return std::make_unique<TextCnn>(cfg, seed);
  };
  return w;
}

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

/// Ensemble and curve points alike: a resumed run replays the points of the
/// rounds it restored.
void ExpectSameRun(const TrainedRun& resumed, const TrainedRun& reference,
                   const Workload& workload, const std::string& label) {
  ExpectBitIdentical(resumed.model, reference.model, workload, label);
  EXPECT_EQ(resumed.curve, reference.curve) << label << ": curve differs";
}

/// Requests SIGTERM at the `at`-th training batch the run's members see in
/// total, so the signal lands inside a member the way a real one does.
class ShutdownAtBatch : public Module {
 public:
  ShutdownAtBatch(std::unique_ptr<Module> inner,
                  std::shared_ptr<std::atomic<int>> batches, int at)
      : inner_(std::move(inner)), batches_(std::move(batches)), at_(at) {}

  void CollectParameters(std::vector<Parameter*>* out) override {
    inner_->CollectParameters(out);
  }
  std::string name() const override { return inner_->name(); }

 protected:
  Tensor ForwardImpl(const Tensor& input, Tape* tape) override {
    if (tape != nullptr && ++*batches_ == at_) RequestShutdown(SIGTERM);
    return inner_->Forward(input, tape);
  }
  Tensor BackwardImpl(const Tensor& grad_output, Tape* tape) override {
    return inner_->Backward(grad_output, tape);
  }

 private:
  std::unique_ptr<Module> inner_;
  std::shared_ptr<std::atomic<int>> batches_;
  int at_;
};

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

class MethodResumeTest : public CheckpointTortureTest,
                         public ::testing::WithParamInterface<Method> {};

// ---------------------------------------------------------------------------
// The tentpole: crash at every failpoint site, resume, compare bit-for-bit.
// ---------------------------------------------------------------------------

TEST_P(MethodResumeTest, CrashAtEverySiteThenResumeIsBitIdentical) {
  const Method method = GetParam();
  const Workload text = TextWorkload();
  const std::vector<std::pair<std::string, const Workload*>> workloads = {
      {"mlp", &workload_}, {"textcnn", &text}};
  // Phase 1: one child per site and workload. Each child wipes its own
  // dir, arms `<site>=crash:2` (the second hit, so some durable state
  // exists by then) and trains until the fault kills it mid-run with a raw
  // _exit — no flushes, no destructors; the closest a test gets to
  // `kill -9`.
  std::vector<std::string> dirs;
  // Only the training-path prefix of the catalog: serving/shutdown sites
  // are never reached by training (their crash specs would just never
  // fire) and have their own failpoint-driven tests.
  for (const auto& [tag, workload] : workloads) {
    for (size_t i = 0; i < failpoint::kNumTrainingSites; ++i) {
      const std::string site = failpoint::kSites[i];
      dirs.push_back(DirFor("torture_" + MethodTag(method) + "_" + tag +
                            "_site_" + std::to_string(i)));
      EXPECT_EXIT(
          {
            RemoveTree(dirs.back());
            (void)failpoint::SetSpec(site + "=crash:2");
            (void)workload->Train(method, dirs.back());
            _exit(7);  // the site was never hit twice — fail the EXPECT_EXIT
          },
          ::testing::ExitedWithCode(failpoint::kCrashExitCode), "")
          << tag << " site " << site;
    }
  }

  // Phase 2 (parent only): resume each wreck with faults disarmed and
  // compare against an uninterrupted run. Deterministic replay makes even
  // a crash *before* any checkpoint landed resolve to the identical result.
  size_t d = 0;
  for (const auto& [tag, workload] : workloads) {
    const TrainedRun reference = workload->Train(method, "");
    for (size_t i = 0; i < failpoint::kNumTrainingSites; ++i, ++d) {
      const TrainedRun resumed = workload->Train(method, dirs[d]);
      ExpectSameRun(resumed, reference, *workload,
                    MethodTag(method) + "_" + tag + "_" +
                        failpoint::kSites[i]);
    }
  }
}

TEST_P(MethodResumeTest, GracefulShutdownThenResumeIsBitIdentical) {
  const Method method = GetParam();
  const std::string dir = DirFor("torture_shutdown_" + MethodTag(method));
  EXPECT_EXIT(
      {
        RemoveTree(dir);
        // As if SIGTERM arrived just before training: no member starts,
        // and the method exits 128+SIGTERM after flushing telemetry.
        RequestShutdown(SIGTERM);
        (void)workload_.Train(method, dir);
        _exit(7);
      },
      ::testing::ExitedWithCode(128 + SIGTERM), "");

  const TrainedRun resumed = workload_.Train(method, dir);
  const TrainedRun reference = workload_.Train(method, "");
  ExpectSameRun(resumed, reference, workload_,
                "shutdown_" + MethodTag(method));
}

TEST_P(MethodResumeTest, ShutdownMidMemberThenResumeIsBitIdentical) {
  const Method method = GetParam();
  const Workload text = TextWorkload();
  const std::vector<std::pair<std::string, const Workload*>> workloads = {
      {"mlp", &workload_}, {"textcnn", &text}};
  // 8 batches an epoch, 3 epochs a member: batch 28 is in the first epoch
  // of the second member's budget. That epoch completes, its inflight
  // checkpoint lands, and the method exits 128+SIGTERM.
  for (const auto& [tag, workload] : workloads) {
    const std::string dir =
        DirFor("torture_shutdown_mid_" + MethodTag(method) + "_" + tag);
    Workload signalled = *workload;
    auto batches = std::make_shared<std::atomic<int>>(0);
    signalled.factory = [base = workload->factory, batches](uint64_t seed) {
      return std::make_unique<ShutdownAtBatch>(base(seed), batches, 28);
    };
    EXPECT_EXIT(
        {
          RemoveTree(dir);
          (void)signalled.Train(method, dir);
          _exit(7);
        },
        ::testing::ExitedWithCode(128 + SIGTERM), "")
        << tag;
  }

  for (const auto& [tag, workload] : workloads) {
    const std::string dir =
        DirFor("torture_shutdown_mid_" + MethodTag(method) + "_" + tag);
    const TrainedRun resumed = workload->Train(method, dir);
    const TrainedRun reference = workload->Train(method, "");
    ExpectSameRun(resumed, reference, *workload,
                  "shutdown_mid_" + MethodTag(method) + "_" + tag);
  }
}

TEST_P(MethodResumeTest, RunOfAnotherArchitectureIsNeverResumed) {
  // Three runs of one method share a dir: the workload, one with wider
  // members, and one of equal size on other data. None may resume another's
  // files — Single's generations before its last round hold no member whose
  // shapes could catch the mismatch, so the run fingerprint has to — and
  // each equals a clean run. Then the first and the last rerun: each
  // restores its own finished run, so neither's files were overwritten or
  // rotated away by the others.
  const Method method = GetParam();
  const std::string dir = FreshDir("torture_other_arch_" + MethodTag(method));
  Workload wider = workload_;
  wider.factory = [](uint64_t seed) {
    MlpConfig cfg;
    cfg.in_features = 6;
    cfg.hidden = {20};
    cfg.num_classes = 3;
    return std::make_unique<Mlp>(cfg, seed);
  };
  Workload other_data = workload_;
  other_data.data = MakeBlobsSplit(256, 128, 6, 3, 12, /*spread=*/1.6f);
  const std::vector<std::pair<std::string, const Workload*>> workloads = {
      {"first", &workload_}, {"wider", &wider}, {"other_data", &other_data}};
  std::vector<TrainedRun> references;
  for (const auto& [tag, workload] : workloads) {
    const TrainedRun run = workload->Train(method, dir);
    references.push_back(workload->Train(method, ""));
    ExpectSameRun(run, references.back(), *workload,
                  tag + "_" + MethodTag(method));
  }
  Counter* const epochs = MetricsRegistry::Global().GetCounter("trainer.epochs");
  for (size_t i : {size_t{0}, size_t{2}}) {
    const auto& [tag, workload] = workloads[i];
    const int64_t epochs_before = epochs->Value();
    const TrainedRun rerun = workload->Train(method, dir);
    EXPECT_EQ(epochs->Value(), epochs_before)
        << tag << "_" << MethodTag(method) << ": a finished run retrained";
    ExpectSameRun(rerun, references[i], *workload,
                  "rerun_" + tag + "_" + MethodTag(method));
  }
}

TEST_P(MethodResumeTest, CheckpointingItselfChangesNothing) {
  // The acceptance bar for "observation-only": training with checkpoints
  // enabled must be bit-identical to training with them off — and a rerun
  // on the finished checkpoints restores the same ensemble and curve.
  const Method method = GetParam();
  const std::string dir = FreshDir("torture_noop_" + MethodTag(method));
  const TrainedRun with_ckpt = workload_.Train(method, dir);
  const TrainedRun without = workload_.Train(method, "");
  ExpectSameRun(with_ckpt, without, workload_, "noop_" + MethodTag(method));
  const TrainedRun restored = workload_.Train(method, dir);
  ExpectSameRun(restored, without, workload_,
                "restored_" + MethodTag(method));
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, MethodResumeTest,
    ::testing::Values(Method::kSingle, Method::kBagging, Method::kAdaBoostM1,
                      Method::kAdaBoostNC, Method::kSnapshot, Method::kBans,
                      Method::kEdde),
    [](const ::testing::TestParamInfo<Method>& info) {
      return MethodTag(info.param);
    });

TEST_F(CheckpointTortureTest, BaggingCrashResumeIsBitIdenticalAcrossThreads) {
  const std::string dir = DirFor("torture_bagging");
  EXPECT_EXIT(
      {
        RemoveTree(dir);
        SetNumThreads(2);
        (void)failpoint::SetSpec("checkpoint.commit=crash:2");
        (void)workload_.Train(Method::kBagging, dir);
        _exit(7);
      },
      ::testing::ExitedWithCode(failpoint::kCrashExitCode), "");

  // Resume at a different pool size than the crashed run: members joining
  // in slot order plus serially pre-drawn per-member seeds make the result
  // thread-count-independent.
  SetNumThreads(5);
  const TrainedRun resumed = workload_.Train(Method::kBagging, dir);
  SetNumThreads(0);  // restore the default pool
  const TrainedRun reference = workload_.Train(Method::kBagging, "");
  ExpectSameRun(resumed, reference, workload_, "bagging");
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
  const std::vector<std::string> files = ListGenerationFiles(RunDir(dir));
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
  const std::vector<std::string> files = ListGenerationFiles(RunDir(dir));
  ASSERT_GE(files.size(), 2u);
  for (const std::string& f : files) FlipByteInMiddle(f);
  // A completed run leaves no inflight files, but corrupt any stragglers so
  // this scenario really is "nothing usable on disk".
  for (int slot = 0; slot < 8; ++slot) {
    char name[36];
    std::snprintf(name, sizeof(name), "inflight_%04d.edde", slot);
    const std::string path = RunDir(dir) + "/" + name;
    if (::access(path.c_str(), F_OK) == 0) FlipByteInMiddle(path);
  }

  EnsembleModel resumed = workload_.TrainEdde(dir);
  ExpectBitIdentical(resumed, reference, workload_, "corrupt_all");
}

TEST_F(CheckpointTortureTest, GenerationOfAnotherVersionIsSkipped) {
  // A generation written by another format version (the section version
  // field sits outside the CRC) is skipped, never misread: the run
  // retrains from scratch and lands on the same result.
  const std::string dir = FreshDir("torture_version");
  const EnsembleModel reference = workload_.TrainEdde(dir);
  const std::vector<std::string> files = ListGenerationFiles(RunDir(dir));
  ASSERT_GE(files.size(), 2u);
  for (const std::string& f : files) {
    std::string bytes = ReadWholeFile(f);
    // magic (u32), then the header section's tag (u32) and version (u32).
    const uint32_t old_version = 1;
    std::memcpy(&bytes[8], &old_version, sizeof(old_version));
    std::ofstream(f, std::ios::binary | std::ios::trunc) << bytes;
  }
  Counter* const skipped = MetricsRegistry::Global().GetCounter(
      "checkpoint.corrupt_generations_skipped");
  const int64_t skipped_before = skipped->Value();
  EnsembleModel resumed = workload_.TrainEdde(dir);
  EXPECT_EQ(skipped->Value() - skipped_before,
            static_cast<int64_t>(files.size()));
  ExpectBitIdentical(resumed, reference, workload_, "other_version");
}

// EDDE with a round-stats observer, on the shared workload.
EnsembleModel TrainEddeObserved(const Workload& w, const std::string& dir,
                                std::vector<EddeRoundStats>* stats) {
  EddeOptions eo;
  eo.gamma = 0.1f;
  eo.beta = 0.7;
  eo.round_stats = stats;
  return EddeMethod(w.Config(dir), eo).Train(w.data.train, w.factory);
}

TEST_F(CheckpointTortureTest, IdenticalEddeRunsWriteIdenticalGenerations) {
  // Durable state is a function of the run: two identical runs write the
  // same generation bytes, with no field masked.
  const std::string dir_a = FreshDir("identical_runs_a");
  const std::string dir_b = FreshDir("identical_runs_b");
  std::vector<EddeRoundStats> stats_a, stats_b;
  (void)TrainEddeObserved(workload_, dir_a, &stats_a);
  (void)TrainEddeObserved(workload_, dir_b, &stats_b);
  const std::vector<std::string> a = ListGenerationFiles(RunDir(dir_a));
  const std::vector<std::string> b = ListGenerationFiles(RunDir(dir_b));
  ASSERT_GE(a.size(), 3u);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(ReadWholeFile(a[i]) == ReadWholeFile(b[i])) << a[i];
  }
}

TEST_F(CheckpointTortureTest, RoundStatsWithSecondsAreDiscarded) {
  // Generations written while the round stats still carried round_seconds
  // (8 more bytes ending each record) fail the stats parse: the run drops
  // that history with a warning, resumes, and lands on the uninterrupted
  // result, with only the retrained round's stats observed.
  const std::string dir = FreshDir("stats_with_seconds");
  std::vector<EddeRoundStats> original;
  const EnsembleModel reference = TrainEddeObserved(workload_, dir, &original);
  std::vector<std::string> files = ListGenerationFiles(RunDir(dir));
  ASSERT_EQ(files.size(), 3u);
  constexpr uint32_t kTagMethodState = 4;
  constexpr size_t kRecordBytes = 68;
  for (const std::string& path : files) {
    uint32_t magic = 0;
    std::vector<testing::Frame> frames =
        testing::ParseFrames(ReadWholeFile(path), &magic);
    for (testing::Frame& f : frames) {
      if (f.tag != kTagMethodState) continue;
      const uint64_t count = testing::LoadWord<uint64_t>(f.payload, 0);
      ASSERT_EQ(f.payload.size(), 8 + count * kRecordBytes) << path;
      std::string old = f.payload.substr(0, 8);
      for (uint64_t r = 0; r < count; ++r) {
        old += f.payload.substr(8 + r * kRecordBytes, kRecordBytes) +
               std::string(sizeof(double), '\0');
      }
      f.payload = old;
    }
    testing::WriteWholeFile(path, testing::BuildFile(magic, frames));
  }
  // Resume from round 2; round 3 trains again.
  ASSERT_EQ(std::remove(files.back().c_str()), 0);

  std::vector<EddeRoundStats> resumed_stats;
  const EnsembleModel resumed =
      TrainEddeObserved(workload_, dir, &resumed_stats);
  ExpectBitIdentical(resumed, reference, workload_, "stats_with_seconds");
  ASSERT_EQ(resumed_stats.size(), 1u);
  EXPECT_EQ(resumed_stats[0].round, original[2].round);
  EXPECT_EQ(resumed_stats[0].alpha, original[2].alpha);
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

TEST_F(CheckpointTortureTest, RotationKeepsOnlyNewestGenerations) {
  const std::string dir = FreshDir("torture_rotate");
  EddeOptions eo;
  eo.gamma = 0.1f;
  eo.beta = 0.7;
  MethodConfig mc = workload_.Config(dir);
  mc.checkpoint.keep = 2;
  EddeMethod method(mc, eo);
  (void)method.Train(workload_.data.train, workload_.factory);
  const std::vector<std::string> files = ListGenerationFiles(RunDir(dir));
  EXPECT_EQ(files.size(), 2u) << "keep=2 must prune older generations";
}

}  // namespace
}  // namespace edde
