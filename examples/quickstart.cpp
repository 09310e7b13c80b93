/// Quickstart: train an EDDE ensemble of small ResNets on the synthetic
/// CIFAR-like dataset and compare it against a single model trained with the
/// same total budget.
///
/// Build & run:
///   cmake -B build -G Ninja && cmake --build build
///   ./build/examples/quickstart [--members=4] [--epochs=6] [--seed=42]
///
/// Pass --metrics_path=/tmp/edde.jsonl (or set EDDE_METRICS_PATH) to dump
/// per-epoch and per-round telemetry as JSONL — see utils/metrics.h.

#include <cstdio>

#include "core/edde.h"
#include "data/synthetic_image.h"
#include "ensemble/single.h"
#include "metrics/diversity.h"
#include "metrics/metrics.h"
#include "nn/resnet.h"
#include "tensor/ops.h"
#include "utils/flags.h"
#include "utils/trace.h"

int main(int argc, char** argv) {
  edde::FlagParser flags;
  flags.Define("members", "4", "ensemble size T");
  flags.Define("epochs", "12", "epochs per member");
  flags.Define("seed", "42", "RNG seed");
  flags.Define("checkpoint_dir", "",
               "directory for crash-consistent checkpoints of the EDDE run "
               "(empty = off); interrupt with Ctrl-C and rerun to resume");
  flags.Define("checkpoint_every", "1",
               "checkpoint cadence, in completed rounds and epochs "
               "(0 = a checkpoint every round, none inside a member)");
  flags.Define("resume", "true",
               "resume from the newest valid checkpoint in --checkpoint_dir");
  edde::DefineCommonFlags(&flags);
  if (!flags.Parse(argc, argv).ok() || flags.help_requested()) {
    flags.PrintHelp(argv[0]);
    return flags.help_requested() ? 0 : 1;
  }
  edde::ApplyCommonFlags(flags);

  // 1. Data: a procedurally generated stand-in for CIFAR-10 (see DESIGN.md).
  edde::SyntheticImageConfig data_cfg;
  data_cfg.num_classes = 10;
  data_cfg.train_size = 1280;
  data_cfg.test_size = 512;
  data_cfg.image_size = 6;
  data_cfg.noise = 0.85f;
  data_cfg.field_weight = 1.2f;
  data_cfg.grating_weight = 0.5f;
  data_cfg.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const edde::TrainTestSplit data = edde::MakeSyntheticImageData(data_cfg);
  std::printf("data: %lld train / %lld test, %d classes\n",
              static_cast<long long>(data.train.size()),
              static_cast<long long>(data.test.size()),
              data.train.num_classes());

  // 2. A factory of fresh base models — a narrow ResNet-8.
  edde::ResNetConfig net_cfg;
  net_cfg.depth = 8;
  net_cfg.base_width = 4;
  net_cfg.num_classes = data_cfg.num_classes;
  const edde::ModelFactory factory = [&](uint64_t seed) {
    return std::make_unique<edde::ResNet>(net_cfg, seed);
  };

  // 3. Shared training budget.
  edde::MethodConfig method_cfg;
  method_cfg.num_members = flags.GetInt("members");
  method_cfg.epochs_per_member = flags.GetInt("epochs");
  method_cfg.batch_size = 16;
  method_cfg.sgd.learning_rate = 0.1f;
  method_cfg.augment = true;
  method_cfg.seed = static_cast<uint64_t>(flags.GetInt("seed"));

  // 4. EDDE (γ = 0.1, β = 0.7 — the paper's ResNet settings).
  // EDDE budget split: long first member, shorter warm-started rest, same
  // total as the single model's run.
  const int total = method_cfg.num_members * method_cfg.epochs_per_member;
  edde::MethodConfig edde_cfg = method_cfg;
  edde_cfg.epochs_per_member = method_cfg.epochs_per_member * 3 / 4;
  edde_cfg.checkpoint.dir = flags.GetString("checkpoint_dir");
  edde_cfg.checkpoint.every = flags.GetInt("checkpoint_every");
  edde_cfg.checkpoint.resume = flags.GetBool("resume");
  edde::EddeOptions edde_opts;
  edde_opts.gamma = 0.1f;
  edde_opts.beta = 0.7;
  edde_opts.first_member_epochs =
      total - (method_cfg.num_members - 1) * edde_cfg.epochs_per_member;
  edde::EddeMethod edde_method(edde_cfg, edde_opts);

  edde::Timer timer;
  edde::EnsembleModel ensemble = edde_method.Train(data.train, factory);
  const double edde_time = timer.Seconds();
  // One pass of every member over the test set feeds all three numbers.
  const std::vector<edde::Tensor> probs = ensemble.MemberProbs(data.test);
  const double edde_acc = edde::Accuracy(
      edde::ArgmaxRows(ensemble.Combine(probs)), data.test.labels());
  const double avg_acc = edde::MeanMemberAccuracy(probs, data.test.labels());
  const double diversity = edde::EnsembleDiversity(probs);

  // 5. Single model with the same total budget.
  edde::SingleModel single(method_cfg);
  timer.Reset();
  edde::EnsembleModel single_model = single.Train(data.train, factory);
  const double single_time = timer.Seconds();
  const double single_acc = single_model.EvaluateAccuracy(data.test);

  std::printf("\n%-14s %10s %12s %12s %10s\n", "method", "test acc",
              "avg member", "diversity", "time");
  std::printf("%-14s %9.2f%% %11.2f%% %12.4f %9.1fs\n", "EDDE",
              100.0 * edde_acc, 100.0 * avg_acc, diversity, edde_time);
  std::printf("%-14s %9.2f%% %12s %12s %9.1fs\n", "Single Model",
              100.0 * single_acc, "-", "-", single_time);
  return 0;
}
