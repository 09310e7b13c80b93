// edde_perfbench — the repository benchmark (see perfbench/README.md).
//
//   edde_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace_path FILE] [--workers N]
//
// Runs one workload in this process through the library's public entry
// points and prints, as the last stdout line, one JSON object with the
// run's verdict and metrics: end-to-end metrics with --trace 0, per-layer
// metrics (program trace on, plus outside-timed layer calls) with
// --trace 1. Exits 0 only when every output check passed.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "utils/trace.h"

namespace {

bool ParseArgs(int argc, char** argv, edde::perfbench::RunOptions* options) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for %s\n", key.c_str());
      return false;
    }
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options->trace = value == "1";
    } else if (key == "--trace_path") {
      options->trace_path = value;
    } else if (key == "--workers") {
      options->workers = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  return options->seconds > 0.0 && options->workers > 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace edde::perfbench;
  RunOptions options;
  if (!ParseArgs(argc, argv, &options)) return 2;
  edde::SetTraceThreadName("main");

  RunResult result;
  if (options.workload == "train-edde-resnet") {
    RunTrainWorkload(options, &result);
  } else if (options.workload == "serve-open-cascade") {
    RunServeWorkload(options, &result);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  std::fflush(stderr);
  std::printf("%s\n", result.ToJson().c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
