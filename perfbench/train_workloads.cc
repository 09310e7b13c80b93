// Training workload: EDDE Algorithm 1 end to end through EddeMethod::Train,
// on a fixed training problem.
//
// The training problem (data, member initialisation, shuffling) is pinned,
// the way a real ensemble is trained on one fixed dataset: time_to_result_ms
// needs the accuracy curve to cross its target at the same member on every
// run, and test_acc is a deterministic quality guard only for a fixed
// problem. --seed drives the inputs of the per-layer probes.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/edde.h"
#include "data/synthetic_image.h"
#include "nn/resnet.h"
#include "utils/metrics.h"
#include "utils/trace.h"

namespace edde {
namespace perfbench {
namespace {

// The final accuracy of a fixed problem is bit-deterministic for one build
// at any thread count, and must be identical across every training in a
// run. Across builds a change of float summation order (a batched conv,
// another GEMM kernel) legitimately moves it by a few test samples; a
// larger move is a quality regression.
constexpr double kAccTolerance = 0.02;

}  // namespace

// EDDE on ResNet-8 members, the tiny Table-2 C10-like split at seed 42:
// 21 + 3 x 9 epochs of 1280 images. Per-member test accuracy there is
// 0.854 / 0.880 / 0.885 / 0.883 (328 / 338 / 340 / 339 of 384 test images),
// so the 0.867 target (333 images) is first reached by the two-member
// ensemble, five test images from either neighbour.
TrainSpec ResNetSpec() {
  TrainSpec s;
  s.make_data = [] { return MakeSyntheticImageData(TinyC10Config()); };
  ResNetConfig rc;
  rc.depth = 8;
  rc.base_width = 4;
  rc.num_classes = 10;
  s.factory = [rc](uint64_t seed) {
    return std::make_unique<ResNet>(rc, seed);
  };
  s.method.num_members = 4;
  s.method.epochs_per_member = 9;
  s.method.batch_size = 16;
  s.method.sgd.learning_rate = 0.1f;
  s.method.augment = true;
  s.method.seed = 42;
  s.options.gamma = 0.1f;
  s.options.beta = 0.7;
  s.options.first_member_epochs = 21;
  s.samples_per_train = (21 + 3 * 9) * 1280;
  s.target_acc = 0.867;
  s.target_member = 2;
  s.expected_acc = 0.8828125;
  return s;
}

namespace {

/// Time spent so far, on the wall clock and in CPU seconds of the
/// training's threads.
struct Clocks {
  double wall = 0.0;
  double cpu = 0.0;
};

/// Progress marks of one Train call, recorded by polling every millisecond
/// the counters the library bumps at every epoch end (`trainer.epochs`) and
/// round end (`edde.rounds`), so the training itself runs with no observer
/// attached. Every training of one fixed problem passes the same marks in
/// the same order, so mark k ends the same work in each of them.
class ProgressClock {
 public:
  struct Mark {
    Clocks at;       ///< since the clock started
    bool round_end;  ///< else an epoch end
    /// Same kind of mark: two trainings match when they pass equal marks in
    /// the same order.
    bool operator==(const Mark& o) const { return round_end == o.round_end; }
  };

  ProgressClock()
      : epochs_(MetricsRegistry::Global().GetCounter("trainer.epochs")),
        rounds_(MetricsRegistry::Global().GetCounter("edde.rounds")),
        epochs_seen_(epochs_->Value()),
        rounds_seen_(rounds_->Value()),
        wall0_(std::chrono::steady_clock::now()),
        cpu0_(ProcessCpuSeconds()),
        poller_([this] {
          while (!stop_.load()) {
            Sample(ThreadCpuSeconds());
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          poller_cpu_ = ThreadCpuSeconds();
        }) {}
  ~ProgressClock() { Stop(); }
  ProgressClock(const ProgressClock&) = delete;
  ProgressClock& operator=(const ProgressClock&) = delete;

  /// Stops polling; returns the marks and the clocks at this call.
  std::vector<Mark> Stop(Clocks* now = nullptr) {
    if (poller_.joinable()) {
      stop_.store(true);
      poller_.join();
      Sample(poller_cpu_);
    }
    if (now != nullptr) *now = Now(poller_cpu_);
    return marks_;
  }

 private:
  /// The poller's own CPU time is not the training's.
  Clocks Now(double poller_cpu) const {
    return {std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          wall0_)
                .count(),
            ProcessCpuSeconds() - cpu0_ - poller_cpu};
  }

  // An epoch end always precedes its round's end by at least the round's
  // bookkeeping, so reading epochs first keeps the marks in order.
  void Sample(double poller_cpu) {
    const int64_t epochs = epochs_->Value();
    const int64_t rounds = rounds_->Value();
    const Clocks now = Now(poller_cpu);
    for (; epochs_seen_ < epochs; ++epochs_seen_) {
      marks_.push_back({now, false});
    }
    for (; rounds_seen_ < rounds; ++rounds_seen_) {
      marks_.push_back({now, true});
    }
  }

  Counter* const epochs_;
  Counter* const rounds_;
  int64_t epochs_seen_;
  int64_t rounds_seen_;
  const std::chrono::steady_clock::time_point wall0_;
  const double cpu0_;
  std::atomic<bool> stop_{false};
  double poller_cpu_ = 0.0;  // the poller's CPU seconds when it stopped
  std::vector<Mark> marks_;  // written by the poller until joined
  std::thread poller_;
};

/// One EddeMethod::Train call.
struct TrainRun {
  EnsembleModel ensemble;
  Clocks train;                 ///< the Train call, benchmark eval included
  std::vector<ProgressClock::Mark> marks;
  Clocks member_eval;           ///< one member's pass over the test set
  int64_t samples = 0;          ///< trainer.samples consumed
  double acc = 0.0;             ///< final ensemble test accuracy
  std::vector<CurvePoint> curve;
};

TrainRun TrainOnce(const TrainSpec& spec, const TrainTestSplit& data,
                   bool with_curve) {
  Counter* samples = MetricsRegistry::Global().GetCounter("trainer.samples");
  TrainRun run;
  EddeMethod method(spec.method, spec.options);
  const EvalCurve curve = with_curve ? EvalCurve{&data.test, &run.curve}
                                     : EvalCurve{};
  const int64_t samples_before = samples->Value();
  {
    ProgressClock clock;
    run.ensemble = method.Train(data.train, spec.factory, curve);
    run.marks = clock.Stop(&run.train);
  }
  run.samples = samples->Value() - samples_before;
  return run;
}

/// The trained ensemble's final test accuracy, timed: the benchmark prices
/// its own per-member eval passes with it.
void Evaluate(const TrainTestSplit& data, TrainRun* run) {
  const double members = static_cast<double>(run->ensemble.size());
  Timer wall;
  const double cpu = ProcessCpuSeconds();
  run->acc = run->ensemble.EvaluateAccuracy(data.test);
  run->member_eval = {wall.Seconds() / members,
                      (ProcessCpuSeconds() - cpu) / members};
}

/// Train timings over repeated trainings of one problem: each stretch
/// between consecutive progress marks takes its median across trainings,
/// and the stretches are summed. A burst of host contention that slows one
/// training's stretch does not move the sum, where a median of whole
/// trainings needs most of them to be clean.
struct Timeline {
  std::vector<double> through;  ///< seconds from Train's start to mark k
  double train = 0.0;           ///< seconds to Train's return
  double member_eval = 0.0;
};

Timeline MedianTimeline(const std::vector<TrainRun>& runs,
                        double Clocks::*clock) {
  Timeline tl;
  const size_t marks = runs.front().marks.size();
  for (size_t k = 0; k <= marks; ++k) {
    std::vector<double> stretch;
    for (const TrainRun& run : runs) {
      const Clocks& end = k < marks ? run.marks[k].at : run.train;
      stretch.push_back(end.*clock -
                        (k > 0 ? run.marks[k - 1].at.*clock : 0.0));
    }
    tl.train += Median(stretch);
    if (k < marks) tl.through.push_back(tl.train);
  }
  std::vector<double> eval;
  for (const TrainRun& run : runs) eval.push_back(run.member_eval.*clock);
  tl.member_eval = Median(eval);
  return tl;
}

std::string CurveString(const std::vector<CurvePoint>& curve) {
  std::string s;
  char buf[32];
  for (const CurvePoint& p : curve) {
    std::snprintf(buf, sizeof(buf), "%s%.4f", s.empty() ? "" : " ", p.second);
    s += buf;
  }
  return s;
}

void CheckAccuracy(const TrainSpec& spec, double acc, RunResult* result) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "test_acc %.6f is more than %.2f off its expected %.6f",
                acc, kAccTolerance, spec.expected_acc);
  result->Check(std::fabs(acc - spec.expected_acc) <= kAccTolerance, buf);
}

/// Data generation plus model build, repeated; returns the median CPU
/// seconds and leaves the last problem in `data`.
double TimedSetup(const TrainSpec& spec, TrainTestSplit* data) {
  std::vector<double> times;
  for (int i = 0; i < 15; ++i) {
    const double cpu = ProcessCpuSeconds();
    *data = spec.make_data();
    std::unique_ptr<Module> member = spec.factory(spec.method.seed);
    times.push_back(ProcessCpuSeconds() - cpu);
  }
  return SetupSeconds(times);
}

/// What one clock's timeline says about a training problem.
struct TrainFigures {
  double samples_per_s = 0.0;
  double time_to_target_s = 0.0;  ///< through the recorded target member
  int target_member = 0;          ///< 1-based; 0 when never reached
};

TrainFigures Figures(const TrainSpec& spec, const TrainRun& run,
                     const Timeline& tl) {
  // The curve probe evaluates the r-member ensemble after round r, at a
  // cost proportional to r; those passes are the benchmark's, not EDDE's,
  // and come back out of the timings.
  auto eval_through = [&](int rounds) {
    return tl.member_eval * rounds * (rounds + 1) / 2.0;
  };
  TrainFigures f;
  f.samples_per_s = static_cast<double>(spec.samples_per_train) /
                    (tl.train - eval_through(spec.method.num_members));
  // The time is taken through the member recorded as the first to reach the
  // target, wherever the curve crosses now: a change of float summation
  // order that moves accuracy by a few test samples must not read as a
  // whole member's time gained or lost. The caller reports a moved
  // crossing.
  int member = 0;
  for (size_t k = 0; k < tl.through.size(); ++k) {
    if (!run.marks[k].round_end) continue;
    ++member;
    if (f.target_member == 0 &&
        run.curve[static_cast<size_t>(member - 1)].second >= spec.target_acc) {
      f.target_member = member;
    }
    if (member == spec.target_member) {
      f.time_to_target_s = tl.through[k] - eval_through(member);
    }
  }
  return f;
}

void RunEndToEnd(const RunOptions& options, const TrainSpec& spec,
                 RunResult* result) {
  const double steal_before = HostStealSeconds();
  TrainTestSplit data;
  const double setup_s = TimedSetup(spec, &data);

  // Whole trainings until the run's time is used, at least three so the
  // per-stretch median has a majority, and so every run also checks that
  // training is repeatable bit for bit.
  std::vector<TrainRun> runs;
  Timer elapsed;
  while (runs.size() < 3 ||
         elapsed.Seconds() + runs.back().train.wall <= options.seconds) {
    runs.push_back(TrainOnce(spec, data, /*with_curve=*/true));
    TrainRun& run = runs.back();
    Evaluate(data, &run);
    run.ensemble = EnsembleModel();  // free the members between trainings
    ++result->attempted;
    const bool ok =
        run.samples == spec.samples_per_train &&
        run.curve.size() == static_cast<size_t>(spec.method.num_members) &&
        run.acc == run.curve.back().second && run.acc == runs.front().acc &&
        run.curve == runs.front().curve && run.marks == runs.front().marks;
    if (!ok) ++result->failed;
    std::printf("train %zu: %.3f s wall, %.3f s CPU, %lld samples, %zu "
                "progress marks, test accuracy per member %s\n",
                runs.size(), run.train.wall, run.train.cpu,
                static_cast<long long>(run.samples), run.marks.size(),
                CurveString(run.curve).c_str());
  }
  result->Check(result->failed == 0,
                "a training consumed the wrong sample count or differed from "
                "the first training");
  CheckAccuracy(spec, runs.front().acc, result);
  if (!result->correct()) return;

  // Gated figures are in CPU seconds of the training's threads: on a VM
  // whose host steals CPU, wall time of identical trainings varies by 40 %
  // where their CPU time varies by 10 % (see README). Wall figures are
  // printed beside them.
  const TrainFigures cpu =
      Figures(spec, runs.front(), MedianTimeline(runs, &Clocks::cpu));
  const TrainFigures wall =
      Figures(spec, runs.front(), MedianTimeline(runs, &Clocks::wall));
  result->Check(cpu.target_member > 0, "the accuracy target was never reached");
  if (cpu.target_member != spec.target_member) {
    std::printf("problem changed: the %.4f target is now first reached at "
                "member %d, not the recorded %d; time_to_target still times "
                "through member %d, and the accuracy move shows in "
                "test_acc\n",
                spec.target_acc, cpu.target_member, spec.target_member,
                spec.target_member);
  }
  std::printf("time_to_target: %.4f first reached at member %d of %d, after "
              "%.3f CPU s (%.3f s wall); %.0f samples per CPU s (%.0f per "
              "wall s); medians over %zu trainings\n",
              spec.target_acc, cpu.target_member, spec.method.num_members,
              cpu.time_to_target_s, wall.time_to_target_s, cpu.samples_per_s,
              wall.samples_per_s, runs.size());

  result->Add("setup_s", setup_s, "s");
  result->Add("cpu_us_per_item", 1e6 / cpu.samples_per_s, "us");
  result->Add("time_to_result_ms", cpu.time_to_target_s * 1e3, "ms");
  result->Add("test_acc", runs.front().acc, "fraction");
  result->Add("peak_rss_mb", PeakRssMb(), "MB");
  std::printf("host steal during run: %.2f s\n",
              HostStealSeconds() - steal_before);
}

void RunTraced(const RunOptions& options, const TrainSpec& spec,
               RunResult* result) {
  const double steal_before = HostStealSeconds();
  TrainTestSplit data;
  TimedSetup(spec, &data);

  // Tracing overhead: the same training untraced, then traced.
  TrainRun untraced = TrainOnce(spec, data, /*with_curve=*/false);
  Evaluate(data, &untraced);
  SetTracePath(options.trace_path);
  ProbeFixedLayers(options.seed, result);

  const TrainingLayers training_layers;
  TrainRun traced = TrainOnce(spec, data, /*with_curve=*/false);
  training_layers.Report(untraced.train.cpu / untraced.train.wall, result);
  Evaluate(data, &traced);

  result->attempted = 2;
  result->failed = (untraced.samples != spec.samples_per_train) +
                   (traced.samples != spec.samples_per_train);
  result->Check(result->failed == 0,
                "a training consumed the wrong sample count");
  result->Check(traced.acc == untraced.acc,
                "test_acc differs with tracing on: bit-identity broken");
  CheckAccuracy(spec, untraced.acc, result);
  std::printf("test_acc untraced %.6f traced %.6f; train %.3f CPU s untraced, "
              "%.3f CPU s traced\n",
              untraced.acc, traced.acc, untraced.train.cpu, traced.train.cpu);

  ProbeEnsembleLayers(traced.ensemble, data.train, data.test, spec.factory,
                      spec.options, result);
  result->Add("trace.overhead_share",
              traced.train.cpu / untraced.train.cpu - 1.0, "fraction");
  result->Add("host.steal_s", HostStealSeconds() - steal_before, "s");
}

}  // namespace

void RunTrainWorkload(const RunOptions& options, RunResult* result) {
  const TrainSpec spec = ResNetSpec();
  if (options.trace) {
    RunTraced(options, spec, result);
  } else {
    RunEndToEnd(options, spec, result);
  }
}

}  // namespace perfbench
}  // namespace edde
