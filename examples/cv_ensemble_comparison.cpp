/// CV scenario: compare every ensemble method in the library on an image
/// classification task at the same total training budget — a miniature of
/// the paper's Table II protocol, driven entirely through the public API.
///
///   ./build/examples/cv_ensemble_comparison [--classes=10] [--seed=42]

#include <cstdio>
#include <iostream>
#include <memory>

#include "core/edde.h"
#include "data/synthetic_image.h"
#include "ensemble/adaboost_m1.h"
#include "ensemble/adaboost_nc.h"
#include "ensemble/bagging.h"
#include "ensemble/bans.h"
#include "ensemble/single.h"
#include "ensemble/snapshot.h"
#include "metrics/diversity.h"
#include "metrics/metrics.h"
#include "nn/resnet.h"
#include "tensor/ops.h"
#include "utils/flags.h"
#include "utils/table.h"
#include "utils/trace.h"

int main(int argc, char** argv) {
  edde::FlagParser flags;
  flags.Define("classes", "10", "number of classes");
  flags.Define("seed", "42", "RNG seed");
  edde::DefineCommonFlags(&flags);
  if (!flags.Parse(argc, argv).ok() || flags.help_requested()) {
    flags.PrintHelp(argv[0]);
    return flags.help_requested() ? 0 : 1;
  }
  edde::ApplyCommonFlags(flags);
  const int classes = flags.GetInt("classes");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));

  // Synthetic CIFAR-like data (see DESIGN.md for the substitution).
  edde::SyntheticImageConfig data_cfg;
  data_cfg.num_classes = classes;
  data_cfg.train_size = 768;
  data_cfg.test_size = 384;
  data_cfg.noise = 0.5f;
  data_cfg.seed = seed;
  const auto data = edde::MakeSyntheticImageData(data_cfg);

  edde::ResNetConfig net_cfg;
  net_cfg.depth = 8;
  net_cfg.base_width = 5;
  net_cfg.num_classes = classes;
  const edde::ModelFactory factory = [&](uint64_t s) {
    return std::make_unique<edde::ResNet>(net_cfg, s);
  };

  // Equal budget: 4 members x 10 epochs (Single trains one model for 40).
  edde::MethodConfig mc;
  mc.num_members = 4;
  mc.epochs_per_member = 10;
  mc.batch_size = 32;
  mc.sgd.learning_rate = 0.1f;
  mc.augment = true;
  mc.seed = seed;

  edde::EddeOptions eo;
  eo.gamma = 0.1f;
  eo.beta = 0.7;
  eo.first_member_epochs = 19;  // EDDE: long first member, short rest
  edde::MethodConfig edde_mc = mc;
  edde_mc.epochs_per_member = 7;

  std::vector<std::unique_ptr<edde::EnsembleMethod>> methods;
  methods.push_back(std::make_unique<edde::SingleModel>(mc));
  methods.push_back(std::make_unique<edde::Bans>(mc));
  methods.push_back(std::make_unique<edde::Bagging>(mc));
  methods.push_back(std::make_unique<edde::AdaBoostM1>(mc));
  methods.push_back(std::make_unique<edde::AdaBoostNC>(mc));
  methods.push_back(std::make_unique<edde::SnapshotEnsemble>(mc));
  methods.push_back(std::make_unique<edde::EddeMethod>(edde_mc, eo));

  edde::TablePrinter table(
      {"Method", "Test accuracy", "Avg member", "Diversity", "Time"});
  for (auto& method : methods) {
    edde::Timer timer;
    edde::EnsembleModel model = method->Train(data.train, factory);
    const std::vector<edde::Tensor> probs = model.MemberProbs(data.test);
    const double acc = edde::Accuracy(edde::ArgmaxRows(model.Combine(probs)),
                                      data.test.labels());
    const double avg = edde::MeanMemberAccuracy(probs, data.test.labels());
    const std::string div =
        model.size() >= 2 ? edde::FormatFloat(edde::EnsembleDiversity(probs), 4)
                          : "-";
    table.AddRow({method->name(), edde::FormatPercent(acc),
                  edde::FormatPercent(avg), div,
                  edde::FormatFloat(timer.Seconds(), 1) + "s"});
  }
  table.Print(std::cout);
  return 0;
}
