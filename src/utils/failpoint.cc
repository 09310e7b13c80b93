#include "utils/failpoint.h"

#include <unistd.h>

#include <charconv>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "utils/logging.h"
#include "utils/run_manifest.h"

namespace edde {
namespace failpoint {

namespace internal {
std::atomic<bool> g_armed{false};
}  // namespace internal

namespace {

enum class Action { kError, kCrash, kShortWrite, kDelay };

struct SiteRule {
  Action action = Action::kError;
  // error: number of hits that fail (-1 = all). crash: which hit crashes
  // (1-based). short_write: bytes dropped. delay: milliseconds.
  long long param = -1;
  long long hits = 0;  // how many times this site has fired
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, SiteRule> rules;
  std::string spec;
};

Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

bool ParseRule(const std::string& rhs, SiteRule* out) {
  const size_t colon = rhs.find(':');
  const std::string action = rhs.substr(0, colon);
  const bool has_param = colon != std::string::npos;
  long long value = -1;
  if (has_param) {
    // Decimal digits only: no sign, no blanks, no overflow.
    const std::string param = rhs.substr(colon + 1);
    const char* end = param.data() + param.size();
    unsigned long long digits = 0;
    const auto [ptr, ec] = std::from_chars(param.data(), end, digits);
    if (ec != std::errc() || ptr != end ||
        digits > static_cast<unsigned long long>(LLONG_MAX)) {
      return false;
    }
    value = static_cast<long long>(digits);
  }
  if (action == "error") {
    out->action = Action::kError;
    out->param = value;
  } else if (action == "crash") {
    out->action = Action::kCrash;
    out->param = has_param ? value : 1;
    if (out->param < 1) return false;
  } else if (action == "short_write") {
    out->action = Action::kShortWrite;
    out->param = has_param ? value : 16;
  } else if (action == "delay") {
    out->action = Action::kDelay;
    if (!has_param) return false;  // delay needs an explicit duration
    out->param = value;
  } else {
    return false;
  }
  return true;
}

}  // namespace

Status SetSpec(const std::string& spec) {
  if (spec.empty()) {
    Clear();
    return Status::OK();
  }
  std::unordered_map<std::string, SiteRule> rules;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    std::string entry = spec.substr(start, comma - start);
    start = comma + 1;
    if (entry.empty()) continue;
    size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= entry.size()) {
      return Status::InvalidArgument("failpoint spec entry '" + entry +
                                     "' is not site=action[:param]");
    }
    SiteRule rule;
    if (!ParseRule(entry.substr(eq + 1), &rule)) {
      return Status::InvalidArgument("failpoint spec entry '" + entry +
                                     "' has an unknown action or bad param");
    }
    rules[entry.substr(0, eq)] = rule;
  }
  Registry& r = registry();
  {
    std::lock_guard<std::mutex> lock(r.mu);
    r.rules = std::move(rules);
    r.spec = spec;
  }
  internal::g_armed.store(true, std::memory_order_relaxed);
  ManifestSetFlag("failpoints", spec);
  EDDE_LOG(WARNING) << "failpoints armed: " << spec;
  return Status::OK();
}

void Clear() {
  Registry& r = registry();
  internal::g_armed.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(r.mu);
  r.rules.clear();
  r.spec.clear();
}

void InitFromEnv() {
  const char* env = std::getenv("EDDE_FAILPOINTS");
  if (env == nullptr || env[0] == '\0') return;
  Status s = SetSpec(env);
  if (!s.ok()) {
    EDDE_LOG(ERROR) << "ignoring EDDE_FAILPOINTS: " << s.ToString();
  }
}

bool AnyActive() {
  return internal::g_armed.load(std::memory_order_relaxed);
}

std::string CurrentSpec() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.spec;
}

Status Hit(const char* site) {
  Registry& r = registry();
  Action action;
  long long param;
  long long hit_index;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.rules.find(site);
    if (it == r.rules.end()) return Status::OK();
    it->second.hits += 1;
    action = it->second.action;
    param = it->second.param;
    hit_index = it->second.hits;
  }
  switch (action) {
    case Action::kError:
      if (param < 0 || hit_index <= param) {
        return Status::IOError(std::string("injected failpoint error at ") +
                               site);
      }
      return Status::OK();
    case Action::kCrash:
      if (hit_index >= param) {
        // Simulated power loss: no destructors, no stream flushes, no atexit.
        _exit(kCrashExitCode);
      }
      return Status::OK();
    case Action::kShortWrite:
      // Consulted by the durable writer via ShortWriteBytes; hitting the
      // site directly is a no-op.
      return Status::OK();
    case Action::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(param));
      return Status::OK();
  }
  return Status::OK();
}

size_t ShortWriteBytes(const char* site) {
  if (!internal::g_armed.load(std::memory_order_relaxed)) return 0;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.rules.find(site);
  if (it == r.rules.end() || it->second.action != Action::kShortWrite) {
    return 0;
  }
  return static_cast<size_t>(it->second.param);
}

}  // namespace failpoint
}  // namespace edde
