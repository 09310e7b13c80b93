#ifndef EDDE_PERFBENCH_COMMON_H_
#define EDDE_PERFBENCH_COMMON_H_

// Shared plumbing of edde_perfbench: the per-run result that becomes
// the final JSON line, summary statistics, host diagnostics, and the
// repeat-and-take-the-median timer used by every outside-timed layer probe.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/edde.h"
#include "data/synthetic_image.h"
#include "nn/mlp.h"
#include "utils/trace.h"

namespace edde {
namespace perfbench {

/// What the command line selects for one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;      ///< per-layer run (program trace on) vs end-to-end
  std::string trace_path;  ///< where the traced run's timeline is written
  int workers = 2;         ///< serving batch workers
};

/// One run's verdict and metrics, printed as the last stdout line.
class RunResult {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Records a failed check: the run is reported incorrect and the message
  /// goes to stderr.
  void Fail(const std::string& message);
  /// Checks `ok`; on failure records `message`.
  void Check(bool ok, const std::string& message) {
    if (!ok) Fail(message);
  }

  bool correct() const { return errors_ == 0; }
  int64_t attempted = 0;  ///< operations the run attempted
  int64_t failed = 0;     ///< of those, operations that failed

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  int errors_ = 0;
};

/// Middle value; the mean of the two middle values for an even count.
double Median(std::vector<double> v);
/// Prints the spread of a run's repeated set-up times and returns their
/// median.
double SetupSeconds(const std::vector<double>& times);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);

/// CPU seconds consumed by this process, all threads
/// (CLOCK_PROCESS_CPUTIME_ID), and by the calling thread. On a VM these
/// exclude the time the host stole from the vCPUs, which wall time does
/// not.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

/// Cumulative steal time of the host's CPUs in seconds (/proc/stat); 0
/// where the kernel does not report it.
double HostStealSeconds();
/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// Runs `fn` `reps` times and returns the median wall time of one call in
/// microseconds, after three untimed warm-up calls. `prepare`, when set,
/// runs untimed before every call (a backward pass needs its forward).
/// Each timed call is also a span named `label` on the trace timeline when
/// tracing is on.
double MedianCallUs(const char* label, int reps,
                    const std::function<void()>& fn,
                    const std::function<void()>& prepare = {});

// ---- What the workloads build on ------------------------------------------

/// The training workload: a fixed problem plus what its outputs must be.
struct TrainSpec {
  std::function<TrainTestSplit()> make_data;
  ModelFactory factory;
  MethodConfig method;
  EddeOptions options;
  int64_t samples_per_train = 0;  ///< samples TrainModel must consume
  double target_acc = 0.0;        ///< time_to_result_ms threshold
  int target_member = 0;          ///< 1-based member that first reaches it
  double expected_acc = 0.0;      ///< final test accuracy on this build
};

/// EDDE on ResNet-8 members, the training workload's problem.
TrainSpec ResNetSpec();
/// The tiny Table-2 C10-like split at seed 42, 6x6 images: the training
/// workload's data, and (flattened) the served ensemble's.
SyntheticImageConfig TinyC10Config();
/// The served ensemble's members: 12 MLPs over flattened TinyC10 images.
constexpr int kServedMembers = 12;
MlpConfig ServedMlpConfig();

void RunTrainWorkload(const RunOptions& options, RunResult* result);
void RunServeWorkload(const RunOptions& options, RunResult* result);

// ---- Per-layer probes (probes.cc) ------------------------------------------
//
// Every workload's traced run reports every per-layer metric, from three
// sources: the fixed-shape probe suite, the same in every workload; the
// workload's own trained ensemble; and one traced EddeMethod::Train call
// of the workload (the served ensemble's training, for serving).

/// Standalone layers at fixed shapes, inputs drawn from `seed`: a ResNet-8
/// member and its Conv2d/BatchNorm layers at the training batch, the conv
/// GEMM, the SGD step, batch preparation, the served MLP members' eval
/// forward and the wire protocol.
void ProbeFixedLayers(uint64_t seed, RunResult* result);

/// EDDE bookkeeping and the cascade on a workload's trained ensemble:
/// soft targets over `train`, similarity and bias, knowledge transfer to a
/// fresh `factory` member, and the cascade accumulator over 16 rows of
/// `test`.
void ProbeEnsembleLayers(const EnsembleModel& ensemble, const Dataset& train,
                         const Dataset& test, const ModelFactory& factory,
                         const EddeOptions& options, RunResult* result);

/// Counter deltas around one traced EddeMethod::Train call: construct it
/// just before the call, Report after it.
class TrainingLayers {
 public:
  TrainingLayers();
  /// Adds the per-batch allocation, trainer, EDDE round and thread-pool
  /// figures; `cpu_per_wall` is the untraced training's ratio.
  void Report(double cpu_per_wall, RunResult* result) const;

 private:
  int64_t allocs_, bytes_, batches_, regions_;
  double drain_s_, batch_s_, train_model_s_, round_s_;
};

}  // namespace perfbench
}  // namespace edde

#endif  // EDDE_PERFBENCH_COMMON_H_
