#ifndef EDDE_UTILS_FLAGS_H_
#define EDDE_UTILS_FLAGS_H_

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "utils/status.h"

namespace edde {

/// Minimal `--key=value` command-line parser for example and bench binaries.
///
///   FlagParser flags;
///   flags.Define("scale", "tiny", "workload scale: tiny|small|paper");
///   flags.Define("seed", "42", "RNG seed");
///   EDDE_CHECK(flags.Parse(argc, argv).ok());
///   int seed = flags.GetInt("seed");
class FlagParser {
 public:
  /// Registers a flag with its default value and help text.
  void Define(const std::string& name, const std::string& default_value,
              const std::string& help);

  /// Parses argv; returns InvalidArgument for unknown or malformed flags.
  /// Recognizes `--name=value`, `--name value` and `--help`.
  Status Parse(int argc, char** argv);

  /// True when `--help` was passed; PrintHelp() and exit in that case.
  bool help_requested() const { return help_requested_; }

  /// Writes the registered flags with defaults and help text to stdout.
  void PrintHelp(const std::string& program) const;

  std::string GetString(const std::string& name) const;

  /// The flag's value as a decimal integer in [lo, hi]. A value that is
  /// not one (non-numeric, trailing junk, out of range) is a usage error,
  /// like an unknown flag: the message goes to stderr and the process
  /// exits 2.
  int GetInt(const std::string& name,
             int lo = std::numeric_limits<int>::min(),
             int hi = std::numeric_limits<int>::max()) const;

  /// The flag's value as true|1|yes or false|0|no. Any other value is a
  /// usage error, as for GetInt: the message goes to stderr and the
  /// process exits 2.
  bool GetBool(const std::string& name) const;

  /// Parses `text` as a decimal integer in [lo, hi] into `out`. False when
  /// it is non-numeric, has trailing junk, or lies outside the range.
  static bool ParseIntInRange(const std::string& text, int lo, int hi,
                              int* out);

  /// True when `name` was registered with Define().
  bool Has(const std::string& name) const;

  /// Every registered flag's current value, sorted by name. Used to record
  /// the parsed configuration into the RunManifest.
  std::vector<std::pair<std::string, std::string>> Values() const;

 private:
  struct FlagInfo {
    std::string value;
    std::string default_value;
    std::string help;
  };
  std::map<std::string, FlagInfo> flags_;
  bool help_requested_ = false;
};

/// Registers the cross-cutting flags every example/bench binary shares:
///   --metrics_path  telemetry JSONL sink (same effect as EDDE_METRICS_PATH)
///   --trace_path    Chrome trace_event timeline (same as EDDE_TRACE_PATH)
///   --log_level     minimum emitted log level (same as EDDE_LOG_LEVEL)
void DefineCommonFlags(FlagParser* parser);

/// Applies the flags registered by DefineCommonFlags after Parse():
/// configures the MetricsRegistry JSONL sink / trace sink / log level when
/// the corresponding flag is set (flags win over environment variables),
/// records every parsed flag value (plus --seed when the binary defines
/// one) into the RunManifest, and installs the crash flight recorder.
void ApplyCommonFlags(const FlagParser& parser);

}  // namespace edde

#endif  // EDDE_UTILS_FLAGS_H_
