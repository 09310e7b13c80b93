/// Knowledge-transfer tuning scenario: run the paper's adaptive β probe
/// (Sec. IV-B / Fig. 4-5) to pick how much of a trained network to transfer
/// into the next ensemble member, then train an EDDE ensemble with the
/// selected β and save it — every member and its α — as one ensemble
/// artifact (SaveEnsemble) that LoadEnsemble restores with the same ResNet
/// factory.
///
///   ./build/examples/beta_tuning [--seed=42] [--out_dir=/tmp]

#include <cstdio>
#include <iostream>
#include <memory>

#include "core/beta_selector.h"
#include "core/edde.h"
#include "data/synthetic_image.h"
#include "ensemble/ensemble_io.h"
#include "nn/resnet.h"
#include "utils/flags.h"
#include "utils/table.h"

int main(int argc, char** argv) {
  edde::FlagParser flags;
  flags.Define("seed", "42", "RNG seed");
  flags.Define("out_dir", "/tmp", "directory for the saved ensemble");
  edde::DefineCommonFlags(&flags);
  if (!flags.Parse(argc, argv).ok() || flags.help_requested()) {
    flags.PrintHelp(argv[0]);
    return flags.help_requested() ? 0 : 1;
  }
  edde::ApplyCommonFlags(flags);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));

  edde::SyntheticImageConfig data_cfg;
  data_cfg.num_classes = 10;
  data_cfg.train_size = 900;  // divisible into 6 folds of 150
  data_cfg.test_size = 384;
  data_cfg.noise = 0.5f;
  data_cfg.seed = seed;
  const auto data = edde::MakeSyntheticImageData(data_cfg);

  edde::ResNetConfig net_cfg;
  net_cfg.depth = 8;
  net_cfg.base_width = 5;
  net_cfg.num_classes = data_cfg.num_classes;
  const edde::ModelFactory factory = [&](uint64_t s) {
    return std::make_unique<edde::ResNet>(net_cfg, s);
  };

  // 1. The fold probe: shrink beta until the student performs the same on
  //    the teacher's fold and on a fold nobody saw.
  edde::BetaProbeConfig probe;
  probe.num_folds = 6;
  probe.beta_grid = {1.0, 0.8, 0.6, 0.4, 0.2};
  probe.teacher_epochs = 10;
  probe.probe_epochs = 3;
  probe.batch_size = 32;
  probe.sgd.learning_rate = 0.1f;
  probe.seed = seed;
  const edde::BetaProbeResult result =
      edde::SelectBeta(data.train, factory, probe);

  edde::TablePrinter table({"beta", "acc on teacher's fold", "acc on unseen",
                            "gap"});
  for (const auto& p : result.points) {
    table.AddRow({edde::FormatFloat(p.beta, 1),
                  edde::FormatPercent(p.acc_seen_fold),
                  edde::FormatPercent(p.acc_unseen_fold),
                  edde::FormatFloat(p.acc_seen_fold - p.acc_unseen_fold, 4)});
  }
  table.Print(std::cout);
  std::printf("selected beta: %.1f\n\n", result.selected_beta);

  // 2. Train EDDE with the selected beta.
  edde::MethodConfig mc;
  mc.num_members = 3;
  mc.epochs_per_member = 7;
  mc.batch_size = 32;
  mc.sgd.learning_rate = 0.1f;
  mc.augment = true;
  mc.seed = seed;
  edde::EddeOptions eo;
  eo.gamma = 0.1f;
  eo.beta = result.selected_beta;
  eo.first_member_epochs = 12;
  edde::EddeMethod method(mc, eo);
  edde::EnsembleModel model = method.Train(data.train, factory);
  std::printf("EDDE(beta=%.1f) test accuracy: %s\n", result.selected_beta,
              edde::FormatPercent(model.EvaluateAccuracy(data.test)).c_str());

  // 3. Persist the ensemble.
  const std::string path =
      flags.GetString("out_dir") + "/edde_beta_tuning.edde";
  const edde::Status status = edde::SaveEnsemble(model, path);
  if (!status.ok()) {
    std::fprintf(stderr, "failed to save %s: %s\n", path.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::printf("saved %s (%lld members)\n", path.c_str(),
              static_cast<long long>(model.size()));
  return 0;
}
