#include "core/beta_selector.h"

#include <memory>

#include "data/sampling.h"
#include "metrics/metrics.h"
#include "utils/crash.h"
#include "utils/logging.h"
#include "utils/metrics.h"
#include "utils/threadpool.h"
#include "utils/trace.h"

namespace edde {

BetaProbeResult SelectBeta(const Dataset& train, const ModelFactory& factory,
                           const BetaProbeConfig& config) {
  EDDE_CHECK_GE(config.num_folds, 3) << "probe needs >= 3 folds";
  EDDE_CHECK(!config.beta_grid.empty());
  Rng rng(config.seed);

  // Folds: teacher sees 0..n-2; student retrains on 0..n-3; fold n-2 is the
  // teacher-only fold; fold n-1 is unseen by both.
  const auto folds = KFoldIndices(train.size(), config.num_folds, &rng);
  const int n = config.num_folds;

  std::vector<int64_t> teacher_idx, student_idx;
  for (int f = 0; f < n - 1; ++f) {
    teacher_idx.insert(teacher_idx.end(), folds[static_cast<size_t>(f)].begin(),
                       folds[static_cast<size_t>(f)].end());
  }
  for (int f = 0; f < n - 2; ++f) {
    student_idx.insert(student_idx.end(), folds[static_cast<size_t>(f)].begin(),
                       folds[static_cast<size_t>(f)].end());
  }
  const Dataset teacher_data = train.Subset(teacher_idx, "beta/teacher");
  const Dataset student_data = train.Subset(student_idx, "beta/student");
  const Dataset seen_fold =
      train.Subset(folds[static_cast<size_t>(n - 2)], "beta/seen");
  const Dataset unseen_fold =
      train.Subset(folds[static_cast<size_t>(n - 1)], "beta/unseen");

  // Pre-train the teacher h_{t-1}.
  std::unique_ptr<Module> teacher = factory(rng.NextU64());
  TrainConfig teacher_tc;
  teacher_tc.epochs = config.teacher_epochs;
  teacher_tc.batch_size = config.batch_size;
  teacher_tc.sgd = config.sgd;
  teacher_tc.schedule =
      std::make_shared<StepDecayLr>(config.sgd.learning_rate);
  teacher_tc.seed = rng.NextU64();
  {
    TraceScope trace("beta_probe/teacher");
    TrainModel(teacher.get(), teacher_data, teacher_tc, TrainContext{});
  }
  if (ShutdownRequested()) GracefulShutdownExit();

  // The grid points are independent probes off the same frozen teacher, so
  // they train concurrently. Student construction and warm start draw from
  // the shared RNG serially, in grid order — the same draw sequence as the
  // sequential implementation — so the probe is deterministic for every
  // thread count.
  const int64_t num_betas = static_cast<int64_t>(config.beta_grid.size());
  struct Probe {
    std::unique_ptr<Module> student;
    uint64_t train_seed = 0;
    double seen_acc = 0.0;
    double unseen_acc = 0.0;
  };
  std::vector<Probe> probes(static_cast<size_t>(num_betas));
  for (int64_t b = 0; b < num_betas; ++b) {
    Probe& probe = probes[static_cast<size_t>(b)];
    probe.student = factory(rng.NextU64());
    TransferKnowledge(teacher.get(), probe.student.get(),
                      config.beta_grid[static_cast<size_t>(b)],
                      config.granularity);
    probe.train_seed = rng.NextU64();
  }

  static Counter* const probe_counter =
      MetricsRegistry::Global().GetCounter("beta_probe.probes");
  ParallelFor(0, num_betas, [&](int64_t b) {
    if (ShutdownRequested()) return;  // drain; the exit follows below
    TraceScope trace("beta_probe/probe");
    probe_counter->Increment();
    Probe& probe = probes[static_cast<size_t>(b)];
    // Mean accuracy on the two probe folds over the first epochs.
    TrainConfig student_tc;
    student_tc.epochs = config.probe_epochs;
    student_tc.batch_size = config.batch_size;
    student_tc.sgd = config.sgd;
    student_tc.seed = probe.train_seed;
    Module* raw = probe.student.get();
    TrainModel(raw, student_data, student_tc, TrainContext{},
               [&](const EpochStats& /*stats*/) {
                 probe.seen_acc += EvaluateAccuracy(raw, seen_fold);
                 probe.unseen_acc += EvaluateAccuracy(raw, unseen_fold);
               });
    probe.seen_acc /= config.probe_epochs;
    probe.unseen_acc /= config.probe_epochs;
  });
  if (ShutdownRequested()) GracefulShutdownExit();

  BetaProbeResult result;
  result.selected_beta = config.beta_grid.back();
  bool selected = false;
  for (int64_t b = 0; b < num_betas; ++b) {
    const Probe& probe = probes[static_cast<size_t>(b)];
    const double beta = config.beta_grid[static_cast<size_t>(b)];
    result.points.push_back(
        BetaProbePoint{beta, probe.seen_acc, probe.unseen_acc});
    if (!selected && probe.seen_acc - probe.unseen_acc <= config.tolerance) {
      result.selected_beta = beta;
      selected = true;
      // Keep scanning to fill the full Fig. 5 curve.
    }
  }
  return result;
}

}  // namespace edde
