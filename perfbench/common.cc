#include "common.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "utils/json.h"
#include "utils/metrics.h"

namespace edde {
namespace perfbench {

void RunResult::Add(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void RunResult::Fail(const std::string& message) {
  ++errors_;
  std::fprintf(stderr, "CHECK FAILED: %s\n", message.c_str());
}

std::string RunResult::ToJson() const {
  JsonBuilder metrics;
  for (const Metric& m : metrics_) {
    metrics.AddRaw(
        m.name,
        JsonBuilder().Add("value", m.value).Add("unit", m.unit).Build());
  }
  return JsonBuilder()
      .Add("correct", correct())
      .Add("attempted", attempted)
      .Add("failed", failed)
      .AddRaw("metrics", metrics.Build())
      .Build();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  return (upper + *std::max_element(v.begin(), v.begin() + mid)) / 2.0;
}

double SetupSeconds(const std::vector<double>& times) {
  const double median = Median(times);
  std::printf("set-up: %zu repeats, CPU s min %.4f median %.4f max %.4f\n",
              times.size(), Quantile(times, 0.0), median,
              Quantile(times, 1.0));
  return median;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

namespace {
double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double HostStealSeconds() {
  // First line: "cpu  user nice system idle iowait irq softirq steal ...",
  // in clock ticks summed over all CPUs.
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (!(in >> cpu) || cpu != "cpu") return 0.0;
  for (double& f : fields) {
    if (!(in >> f)) return 0.0;
  }
  return fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double MedianCallUs(const char* label, int reps,
                    const std::function<void()>& fn,
                    const std::function<void()>& prepare) {
  for (int i = 0; i < 3; ++i) {
    if (prepare) prepare();
    fn();
  }
  const TraceRegion* region = GetTraceRegion(label);
  std::vector<double> us;
  us.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    if (prepare) prepare();
    const auto start = std::chrono::steady_clock::now();
    {
      TraceScope scope(region);
      fn();
    }
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  return Median(std::move(us));
}

}  // namespace perfbench
}  // namespace edde
