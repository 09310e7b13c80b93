#include "utils/flags.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "utils/crash.h"
#include "utils/failpoint.h"
#include "utils/logging.h"
#include "utils/metrics.h"
#include "utils/run_manifest.h"
#include "utils/trace.h"

namespace edde {

void FlagParser::Define(const std::string& name,
                        const std::string& default_value,
                        const std::string& help) {
  EDDE_CHECK(flags_.find(name) == flags_.end())
      << "flag redefined: " << name;
  flags_[name] = FlagInfo{default_value, default_value, help};
}

Status FlagParser::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("expected --flag, got: " + arg);
    }
    std::string body = arg.substr(2);
    std::string name, value;
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
    } else {
      name = body;
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";  // bare boolean flag
      }
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag: --" + name);
    }
    it->second.value = value;
  }
  return Status::OK();
}

void FlagParser::PrintHelp(const std::string& program) const {
  std::printf("Usage: %s [--flag=value ...]\n", program.c_str());
  for (const auto& [name, info] : flags_) {
    std::printf("  --%-18s %s (default: %s)\n", name.c_str(),
                info.help.c_str(), info.default_value.c_str());
  }
}

std::string FlagParser::GetString(const std::string& name) const {
  auto it = flags_.find(name);
  EDDE_CHECK(it != flags_.end()) << "undefined flag: " << name;
  return it->second.value;
}

int FlagParser::GetInt(const std::string& name, int lo, int hi) const {
  const std::string text = GetString(name);
  int value = 0;
  if (!ParseIntInRange(text, lo, hi, &value)) {
    std::fprintf(stderr, "invalid --%s=%s (an integer in [%d, %d])\n",
                 name.c_str(), text.c_str(), lo, hi);
    std::exit(2);
  }
  return value;
}

bool FlagParser::ParseIntInRange(const std::string& text, int lo, int hi,
                                 int* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && *out >= lo && *out <= hi;
}

bool FlagParser::GetBool(const std::string& name) const {
  const std::string v = GetString(name);
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  std::fprintf(stderr, "invalid --%s=%s (true|false|1|0|yes|no)\n",
               name.c_str(), v.c_str());
  std::exit(2);
}

bool FlagParser::Has(const std::string& name) const {
  return flags_.find(name) != flags_.end();
}

std::vector<std::pair<std::string, std::string>> FlagParser::Values() const {
  std::vector<std::pair<std::string, std::string>> values;
  values.reserve(flags_.size());
  for (const auto& [name, info] : flags_) {
    values.emplace_back(name, info.value);
  }
  return values;
}

void DefineCommonFlags(FlagParser* parser) {
  parser->Define("metrics_path", "",
                 "write telemetry (epoch/round records + aggregates) as "
                 "JSONL to this path; also: EDDE_METRICS_PATH env var");
  parser->Define("trace_path", "",
                 "write a Chrome/Perfetto trace_event timeline to this "
                 "path; also: EDDE_TRACE_PATH env var");
  parser->Define("log_level", "",
                 "minimum emitted log level: debug|info|warning|error|"
                 "fatal; also: EDDE_LOG_LEVEL env var");
}

void ApplyCommonFlags(const FlagParser& parser) {
  const std::string metrics_path = parser.GetString("metrics_path");
  if (!metrics_path.empty()) {
    MetricsRegistry::Global().SetSinkPath(metrics_path);
  }
  const std::string trace_path = parser.GetString("trace_path");
  if (!trace_path.empty()) {
    SetTracePath(trace_path);
  }
  const std::string log_level = parser.GetString("log_level");
  if (!log_level.empty()) {
    LogLevel level;
    if (ParseLogLevel(log_level, &level)) {
      SetMinLogLevel(level);
    } else {
      EDDE_LOG(WARNING) << "ignoring invalid --log_level=" << log_level
                        << " (want debug|info|warning|error|fatal)";
    }
  }
  // Provenance: the parsed configuration becomes part of every artifact
  // this run writes, and from here on a crash leaves a flight-recorder
  // report next to them.
  for (const auto& [name, value] : parser.Values()) {
    ManifestSetFlag(name, value);
  }
  if (parser.Has("seed")) {
    ManifestSetSeed(static_cast<uint64_t>(parser.GetInt("seed")));
  }
  InstallCrashHandler();
  // Ctrl-C / SIGTERM become checkpoint-then-exit instead of instant death.
  InstallShutdownHandler();
  // Fault injection for durability testing; no-op unless EDDE_FAILPOINTS
  // is set (and the armed spec lands in the manifest).
  failpoint::InitFromEnv();
}

}  // namespace edde
