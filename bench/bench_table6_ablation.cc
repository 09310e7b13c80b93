/// Table VI — ablation study.
///
/// Paper (CIFAR-100, ResNet-32, EDDE at 200 epochs / AdaBoost.NC at 400):
///   EDDE                74.38%  div 0.1743  avg 67.91%
///   EDDE (normal loss)  73.86%  div 0.1682  avg 67.97%
///   EDDE (transfer all) 73.37%  div 0.1631  avg 68.16%
///   EDDE (transfer none)70.78%  div 0.1854  avg 66.72%
///   AdaBoost.NC (trans) 72.64%  div 0.1573  avg 67.33%
///
/// Shapes to reproduce: full EDDE best on ensemble accuracy; transfer-all
/// has the best average accuracy but lower diversity; transfer-none has the
/// highest diversity but the worst accuracies.
///
/// Extension rows (DESIGN.md §5 design-choice ablations): transfer
/// granularity, weight-update base, diversity target.

#include <cstdio>
#include <iostream>

#include "bench_common.h"
#include "ensemble/adaboost_nc.h"
#include "metrics/diversity.h"
#include "metrics/metrics.h"
#include "tensor/ops.h"
#include "utils/table.h"
#include "utils/trace.h"

namespace edde {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  FlagParser flags;
  if (!InitExperiment(&flags, argc, argv)) return 0;
  const Scale scale = ParseScale(flags.GetString("scale"));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  PrintBanner("Table VI: ablation study (C100-like, ResNet family)",
              "both the diversity-driven loss and selective transfer "
              "contribute: normal loss and transfer-all lose accuracy via "
              "diversity, transfer-none loses it via member quality",
              scale, seed);

  const CvWorkload w = MakeC100Like(scale, seed);
  const Budget budget = MakeCvBudget(scale, seed);
  const ModelFactory factory = MakeResNetFactory(scale, w.num_classes);
  const EddeOptions base = PaperEddeOptions(Arch::kResNet, budget);

  TablePrinter table({"Method", "Ensemble accuracy", "Diversity",
                      "Average accuracy"});
  Timer total;

  auto add_row = [&](const std::string& name, EnsembleMethod* method) {
    EnsembleModel model = method->Train(w.data.train, factory);
    const std::vector<Tensor> probs = model.MemberProbs(w.data.test);
    const std::vector<int>& labels = w.data.test.labels();
    const double acc = Accuracy(ArgmaxRows(model.Combine(probs)), labels);
    RecordHeadline(name + "/ensemble_acc", acc);
    table.AddRow({name, FormatPercent(acc),
                  FormatFloat(EnsembleDiversity(probs), 4),
                  FormatPercent(MeanMemberAccuracy(probs, labels))});
    std::fprintf(stderr, "[table6] %s done (%.1fs elapsed)\n", name.c_str(),
                 total.Seconds());
  };

  {
    auto m = MakeEdde(budget, Arch::kResNet, base);
    add_row("EDDE", m.get());
  }
  {
    EddeOptions eo = base;
    eo.use_diversity_loss = false;
    auto m = MakeEdde(budget, Arch::kResNet, eo);
    add_row("EDDE (normal loss)", m.get());
  }
  {
    EddeOptions eo = base;
    eo.transfer_mode = EddeOptions::TransferMode::kAll;
    auto m = MakeEdde(budget, Arch::kResNet, eo);
    add_row("EDDE (transfer all)", m.get());
  }
  {
    EddeOptions eo = base;
    eo.transfer_mode = EddeOptions::TransferMode::kNone;
    auto m = MakeEdde(budget, Arch::kResNet, eo);
    add_row("EDDE (transfer none)", m.get());
  }
  {
    // AdaBoost.NC warm-started from the previous member, at double budget
    // like the paper's 400-vs-200 protocol (2x members here).
    MethodConfig mc = budget.method;
    mc.num_members *= 2;
    AdaBoostNC m(mc, /*penalty_strength=*/2.0, /*transfer_all=*/true);
    add_row("AdaBoost.NC (transfer)", &m);
  }

  // --- DESIGN.md §5 extension ablations ---
  {
    EddeOptions eo = base;
    eo.granularity = TransferGranularity::kLayerFraction;
    auto m = MakeEdde(budget, Arch::kResNet, eo);
    add_row("EDDE [beta by layer count]", m.get());
  }
  {
    EddeOptions eo = base;
    eo.weight_update = EddeOptions::WeightUpdateBase::kMultiplicative;
    auto m = MakeEdde(budget, Arch::kResNet, eo);
    add_row("EDDE [multiplicative W update]", m.get());
  }
  {
    EddeOptions eo = base;
    eo.diversity_target = EddeOptions::DiversityTarget::kPreviousMember;
    auto m = MakeEdde(budget, Arch::kResNet, eo);
    add_row("EDDE [diversify vs previous member]", m.get());
  }

  table.Print(std::cout);
  std::printf("\ntotal wall time: %.1fs\n", total.Seconds());
  FinishExperiment("table6_ablation");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace edde

int main(int argc, char** argv) { return edde::bench::Run(argc, argv); }
