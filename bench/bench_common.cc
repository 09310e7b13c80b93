#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "ensemble/adaboost_m1.h"
#include "ensemble/adaboost_nc.h"
#include "ensemble/bagging.h"
#include "ensemble/bans.h"
#include "ensemble/single.h"
#include "ensemble/snapshot.h"
#include "nn/densenet.h"
#include "nn/resnet.h"
#include "nn/textcnn.h"
#include "utils/durable_io.h"
#include "utils/logging.h"
#include "utils/metrics.h"
#include "utils/run_manifest.h"
#include "utils/threadpool.h"
#include "utils/trace.h"

namespace edde {
namespace bench {

namespace {

std::mutex g_headlines_mu;
std::vector<std::pair<std::string, double>>& Headlines() {
  static auto* headlines = new std::vector<std::pair<std::string, double>>();
  return *headlines;
}

std::string& BenchOutOverride() {
  static auto* path = new std::string();
  return *path;
}

/// Checkpoint settings from --checkpoint_dir/--checkpoint_every/--resume,
/// applied to every Budget the bench builds. Empty dir = disabled (default).
CheckpointConfig& BenchCheckpoint() {
  static auto* config = new CheckpointConfig();
  return *config;
}

/// The manifest records which bytes a result was computed from (synthetic
/// generators drift too).
uint64_t FingerprintSplit(const TrainTestSplit& split) {
  return split.test.Fingerprint(split.train.Fingerprint());
}

}  // namespace

Scale ParseScale(const std::string& value) {
  if (value == "tiny") return Scale::kTiny;
  if (value == "small") return Scale::kSmall;
  if (value == "paper") return Scale::kPaper;
  EDDE_LOG(FATAL) << "unknown --scale: " << value
                  << " (expected tiny|small|paper)";
  return Scale::kTiny;
}

bool InitExperiment(FlagParser* flags, int argc, char** argv) {
  flags->Define("scale", "tiny", "workload scale: tiny|small|paper");
  flags->Define("seed", "42", "RNG seed for data and training");
  flags->Define("bench_out", "",
                "path of the machine-readable bench output "
                "(default: BENCH_<name>.json in the working directory)");
  flags->Define("num_threads", "0",
                "thread-pool size (0 = auto; benches floor auto at 4 so the "
                "parallel substrate is always exercised — results are "
                "bit-identical across pool sizes)");
  flags->Define("checkpoint_dir", "",
                "directory for crash-consistent round/epoch checkpoints "
                "(empty = checkpointing off; each run gets a "
                "subdirectory named by its fingerprint)");
  flags->Define("checkpoint_every", "1",
                "checkpoint cadence, in completed rounds and epochs "
                "(0 = a checkpoint every round, none inside a member)");
  flags->Define("resume", "true",
                "resume from the newest valid checkpoint in "
                "--checkpoint_dir (results are bit-identical to an "
                "uninterrupted run)");
  DefineCommonFlags(flags);
  const Status status = flags->Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    std::exit(1);
  }
  if (flags->help_requested()) {
    flags->PrintHelp(argv[0]);
    return false;
  }
  ManifestSetProgram(argv[0]);
  SetTraceThreadName("main");
  ApplyCommonFlags(*flags);
  const int num_threads = flags->GetInt("num_threads");
  const char* env_threads = std::getenv("EDDE_NUM_THREADS");
  if (num_threads > 0) {
    SetNumThreads(num_threads);
  } else if ((env_threads == nullptr || env_threads[0] == '\0') &&
             std::thread::hardware_concurrency() < 4) {
    // On small CI boxes auto-detection would serialize the pool; members
    // join in slot order whatever the thread count, so this cannot change
    // any result, only the timeline's worker tracks and the wall time. An
    // explicit EDDE_NUM_THREADS (or --num_threads) always wins.
    SetNumThreads(4);
  }
  BenchOutOverride() = flags->GetString("bench_out");
  CheckpointConfig& ckpt = BenchCheckpoint();
  ckpt.dir = flags->GetString("checkpoint_dir");
  ckpt.every = flags->GetInt("checkpoint_every");
  ckpt.resume = flags->GetBool("resume");
  return true;
}

void RecordHeadline(const std::string& key, double value) {
  std::lock_guard<std::mutex> lock(g_headlines_mu);
  Headlines().emplace_back(key, value);
}

void FinishExperiment(const std::string& bench_name) {
  std::printf("\n-- telemetry --\n");
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.PrintSummary(std::cout);

  std::string regions_json = "[";
  bool first = true;
  for (const std::string& name : registry.HistogramNames()) {
    const Histogram* h = registry.GetHistogram(name);
    if (h->Count() == 0) continue;
    if (!first) regions_json += ",";
    first = false;
    // Two kinds of histogram share the registry: trace-region timings
    // (time/<label>, plus anything explicitly named *_seconds) hold
    // wall-clock seconds; the rest record dimensionless counts
    // (serve.batch_rows, serve.cascade_depth, ...). Each region says which
    // with `unit`, and count-valued ones use unsuffixed stat keys so a
    // batch-size distribution no longer masquerades as a duration.
    // bench_diff reads either spelling.
    const bool seconds = name.rfind("time/", 0) == 0 ||
                         name.find("_seconds") != std::string::npos;
    JsonBuilder region;
    region.Add("region", name);
    region.Add("unit", seconds ? "seconds" : "count");
    region.Add("count", h->Count());
    if (seconds) {
      region.Add("total_seconds", h->Sum())
          .Add("mean_seconds", h->Mean())
          .Add("min_seconds", h->Min())
          .Add("max_seconds", h->Max())
          .Add("p50_seconds", h->ApproxQuantile(0.5))
          .Add("p99_seconds", h->ApproxQuantile(0.99));
    } else {
      region.Add("total", h->Sum())
          .Add("mean", h->Mean())
          .Add("min", h->Min())
          .Add("max", h->Max())
          .Add("p50", h->ApproxQuantile(0.5))
          .Add("p99", h->ApproxQuantile(0.99));
    }
    regions_json += region.Build();
  }
  regions_json += "]";

  std::string headlines_json = "[";
  {
    std::lock_guard<std::mutex> lock(g_headlines_mu);
    for (size_t i = 0; i < Headlines().size(); ++i) {
      if (i > 0) headlines_json += ",";
      headlines_json += JsonBuilder()
                            .Add("key", Headlines()[i].first)
                            .Add("value", Headlines()[i].second)
                            .Build();
    }
  }
  headlines_json += "]";

  const std::string json = JsonBuilder()
                               .Add("schema", 1)
                               .Add("bench", bench_name)
                               .AddRaw("manifest", RunManifestJson())
                               .AddRaw("regions", regions_json)
                               .AddRaw("headlines", headlines_json)
                               .Build();
  const std::string path = BenchOutOverride().empty()
                               ? "BENCH_" + bench_name + ".json"
                               : BenchOutOverride();
  // Atomic commit: tools/bench_diff must never read a torn BENCH_*.json,
  // even if the bench is killed mid-write.
  const Status status = AtomicWriteFile(path, json + "\n");
  if (!status.ok()) {
    EDDE_LOG(ERROR) << "failed to write bench output: " << path << ": "
                    << status.ToString();
  } else {
    std::printf("\nbench output: %s\n", path.c_str());
  }
}

namespace {

int ScaleInt(Scale scale, int tiny, int small, int paper) {
  switch (scale) {
    case Scale::kTiny:
      return tiny;
    case Scale::kSmall:
      return small;
    case Scale::kPaper:
      return paper;
  }
  return tiny;
}

}  // namespace

// The CV workloads are calibrated (see EXPERIMENTS.md "Scale / fidelity
// notes") so that at tiny scale (a) base models reach the high-train-
// accuracy regime EDDE's Eq. 15 weighting assumes, and (b) single models
// overfit enough that ensembling pays. field/grating weights favour the
// smooth low-frequency class signature, which small convnets learn within
// a per-member budget.

CvWorkload MakeC10Like(Scale scale, uint64_t seed) {
  SyntheticImageConfig cfg;
  cfg.num_classes = 10;
  cfg.train_size = ScaleInt(scale, 1280, 3072, 50000);
  cfg.test_size = ScaleInt(scale, 384, 1024, 10000);
  cfg.image_size = ScaleInt(scale, 6, 10, 32);
  cfg.noise = 0.85f;
  cfg.label_noise = 0.03f;
  cfg.field_weight = 1.2f;
  cfg.grating_weight = 0.5f;
  cfg.seed = seed;
  CvWorkload w;
  w.dataset_name = "C10-like";
  w.data = MakeSyntheticImageData(cfg);
  w.num_classes = cfg.num_classes;
  ManifestAddDataset(w.dataset_name, FingerprintSplit(w.data));
  return w;
}

CvWorkload MakeC100Like(Scale scale, uint64_t seed) {
  SyntheticImageConfig cfg;
  cfg.num_classes = ScaleInt(scale, 16, 32, 100);
  cfg.train_size = ScaleInt(scale, 1280, 3072, 50000);
  cfg.test_size = ScaleInt(scale, 512, 1024, 10000);
  cfg.image_size = ScaleInt(scale, 6, 10, 32);
  cfg.noise = 0.8f;
  cfg.label_noise = 0.04f;
  cfg.field_weight = 1.2f;
  cfg.grating_weight = 0.5f;
  cfg.seed = seed + 1;
  CvWorkload w;
  w.dataset_name = "C100-like";
  w.data = MakeSyntheticImageData(cfg);
  w.num_classes = cfg.num_classes;
  ManifestAddDataset(w.dataset_name, FingerprintSplit(w.data));
  return w;
}

NlpWorkload MakeImdbLike(Scale scale, uint64_t seed) {
  NlpWorkload w;
  w.config.vocab_size = ScaleInt(scale, 300, 1000, 5000);
  w.config.seq_len = ScaleInt(scale, 32, 64, 120);
  w.config.train_size = ScaleInt(scale, 1024, 4096, 25000);
  w.config.test_size = ScaleInt(scale, 512, 1024, 25000);
  w.config.sentiment_vocab = ScaleInt(scale, 32, 64, 200);
  w.config.seed = seed + 2;
  w.dataset_name = "IMDB-like";
  w.data = MakeSyntheticTextData(w.config);
  ManifestAddDataset(w.dataset_name, FingerprintSplit(w.data));
  return w;
}

NlpWorkload MakeMrLike(Scale scale, uint64_t seed) {
  NlpWorkload w;
  w.config.vocab_size = ScaleInt(scale, 250, 800, 4000);
  w.config.seq_len = ScaleInt(scale, 16, 24, 50);
  w.config.train_size = ScaleInt(scale, 768, 2048, 9000);
  w.config.test_size = ScaleInt(scale, 384, 1024, 1600);
  w.config.sentiment_vocab = ScaleInt(scale, 24, 48, 150);
  w.config.sentiment_rate = 0.22;  // short reviews: denser sentiment
  w.config.seed = seed + 3;
  w.dataset_name = "MR-like";
  w.data = MakeSyntheticTextData(w.config);
  ManifestAddDataset(w.dataset_name, FingerprintSplit(w.data));
  return w;
}

ModelFactory MakeResNetFactory(Scale scale, int num_classes) {
  ResNetConfig cfg;
  cfg.depth = ScaleInt(scale, 8, 14, 32);
  cfg.base_width = ScaleInt(scale, 4, 8, 16);
  cfg.num_classes = num_classes;
  return [cfg](uint64_t seed) {
    return std::make_unique<ResNet>(cfg, seed);
  };
}

ModelFactory MakeDenseNetFactory(Scale scale, int num_classes) {
  DenseNetConfig cfg;
  cfg.depth = ScaleInt(scale, 10, 16, 40);
  cfg.growth = ScaleInt(scale, 3, 6, 12);
  cfg.num_classes = num_classes;
  return [cfg](uint64_t seed) {
    return std::make_unique<DenseNet>(cfg, seed);
  };
}

ModelFactory MakeTextCnnFactory(Scale scale, const SyntheticTextConfig& data) {
  TextCnnConfig cfg;
  cfg.vocab_size = data.vocab_size;
  cfg.seq_len = data.seq_len;
  cfg.embed_dim = ScaleInt(scale, 8, 16, 50);
  cfg.kernel_sizes = {3, 4, 5};
  cfg.filters_per_size = ScaleInt(scale, 6, 12, 100);
  cfg.dropout_rate = 0.3f;
  cfg.num_classes = 2;
  return [cfg](uint64_t seed) {
    return std::make_unique<TextCnn>(cfg, seed);
  };
}

Budget MakeCvBudget(Scale scale, uint64_t seed) {
  Budget b;
  b.method.num_members = 4;
  b.method.epochs_per_member = ScaleInt(scale, 12, 20, 50);
  b.method.batch_size = 16;
  b.method.sgd.learning_rate = 0.1f;
  b.method.augment = true;
  b.method.seed = seed;
  b.method.checkpoint = BenchCheckpoint();
  b.total_epochs = b.method.num_members * b.method.epochs_per_member;
  // EDDE: the first member gets a long (Snapshot-cycle-sized) budget so the
  // trunk every later member inherits is strong; later members get shorter
  // fine-tuning runs (paper Sec. V-A "training budget"), same total.
  b.edde_rest_epochs = (b.method.epochs_per_member * 3) / 4;
  b.edde_first_epochs =
      b.total_epochs - (b.method.num_members - 1) * b.edde_rest_epochs;
  return b;
}

Budget MakeNlpBudget(Scale scale, uint64_t seed) {
  Budget b;
  b.method.num_members = 4;
  b.method.epochs_per_member = ScaleInt(scale, 12, 16, 20);
  b.method.batch_size = 32;
  b.method.sgd.learning_rate = 0.1f;
  b.method.sgd.weight_decay = 0.0f;  // TextCNN prefers no decay at our scale
  b.method.augment = false;
  b.method.seed = seed;
  b.method.checkpoint = BenchCheckpoint();
  b.total_epochs = b.method.num_members * b.method.epochs_per_member;
  // Paper: EDDE hits its NLP numbers with *half* the baselines' budget; the
  // first member gets roughly half that budget, the rest split the rest.
  const int edde_total = b.total_epochs / 2;
  b.edde_rest_epochs =
      std::max(2, edde_total / (2 * (b.method.num_members - 1)));
  b.edde_first_epochs =
      edde_total - (b.method.num_members - 1) * b.edde_rest_epochs;
  return b;
}

EddeOptions PaperEddeOptions(Arch arch, const Budget& budget) {
  EddeOptions eo;
  switch (arch) {
    case Arch::kResNet:
      eo.gamma = 0.1f;
      eo.beta = 0.7;
      break;
    case Arch::kDenseNet:
      eo.gamma = 0.2f;
      eo.beta = 0.5;
      break;
    case Arch::kTextCnn:
      // "Transfer the knowledge of all the convolution layers": everything
      // below the classifier head, counted in layers.
      eo.gamma = 0.1f;
      eo.beta = 0.8;
      eo.granularity = TransferGranularity::kLayerFraction;
      break;
  }
  eo.first_member_epochs = budget.edde_first_epochs;
  return eo;
}

std::unique_ptr<EnsembleMethod> MakeEdde(const Budget& budget, Arch /*arch*/,
                                         EddeOptions options) {
  MethodConfig mc = budget.method;
  mc.epochs_per_member = budget.edde_rest_epochs;
  return std::make_unique<EddeMethod>(mc, options);
}

std::vector<std::unique_ptr<EnsembleMethod>> MakeStandardMethods(
    const Budget& budget, Arch arch) {
  std::vector<std::unique_ptr<EnsembleMethod>> methods;
  methods.push_back(std::make_unique<SingleModel>(budget.method));
  methods.push_back(std::make_unique<Bans>(budget.method));
  methods.push_back(std::make_unique<Bagging>(budget.method));
  methods.push_back(std::make_unique<AdaBoostM1>(budget.method));
  methods.push_back(std::make_unique<AdaBoostNC>(budget.method));
  methods.push_back(std::make_unique<SnapshotEnsemble>(budget.method));
  methods.push_back(MakeEdde(budget, arch, PaperEddeOptions(arch, budget)));
  return methods;
}

void PrintBanner(const std::string& experiment_id, const std::string& claim,
                 Scale scale, uint64_t seed) {
  const char* scale_name = scale == Scale::kTiny    ? "tiny"
                           : scale == Scale::kSmall ? "small"
                                                    : "paper";
  std::printf("== %s ==\n", experiment_id.c_str());
  std::printf("paper claim: %s\n", claim.c_str());
  std::printf("scale=%s seed=%llu (synthetic workloads; compare shapes, not "
              "absolute numbers — see EXPERIMENTS.md)\n\n",
              scale_name, static_cast<unsigned long long>(seed));
}

}  // namespace bench
}  // namespace edde
