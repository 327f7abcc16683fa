#include "bench/workload/runner.h"

#include <execinfo.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>

namespace stacktrack::bench::workload {

LatencySummary Summarize(const LatencyHistogram& histogram) {
  LatencySummary summary;
  summary.count = histogram.count();
  summary.p50_ns = histogram.Percentile(50.0);
  summary.p99_ns = histogram.Percentile(99.0);
  summary.p999_ns = histogram.Percentile(99.9);
  summary.max_ns = histogram.max();
  summary.mean_ns = histogram.mean();
  return summary;
}

std::string LatencyToJson(const LatencyHistogram& histogram) {
  const LatencySummary s = Summarize(histogram);
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "{\"count\":%llu,\"p50_ns\":%llu,\"p99_ns\":%llu,\"p999_ns\":%llu,"
                "\"max_ns\":%llu,\"mean_ns\":%.1f}",
                static_cast<unsigned long long>(s.count),
                static_cast<unsigned long long>(s.p50_ns),
                static_cast<unsigned long long>(s.p99_ns),
                static_cast<unsigned long long>(s.p999_ns),
                static_cast<unsigned long long>(s.max_ns), s.mean_ns);
  return buffer;
}

core::Stats StatsDelta(const core::Stats& before, const core::Stats& after) {
  core::Stats delta = after;
  const uint64_t* before_words = reinterpret_cast<const uint64_t*>(&before);
  uint64_t* delta_words = reinterpret_cast<uint64_t*>(&delta);
  for (std::size_t i = 0; i < sizeof(core::Stats) / sizeof(uint64_t); ++i) {
    delta_words[i] -= before_words[i];
  }
  return delta;
}

void PrintHeader(const char* title, const char* workload) {
  if (EnvConfig::Load().trace_arm) {
    runtime::trace::Arm(true);
    std::printf("# event tracing: ARMED\n");
  }
  std::printf("# %s\n# workload: %s\n", title, workload);
  std::printf("# machine model: 4 cores x 2 SMT (software HTM substrate)\n");
}

namespace {

void CrashHandler(int sig) {
  void* frames[32];
  backtrace_symbols_fd(frames, backtrace(frames, 32), 2);
  _exit(128 + sig);
}

}  // namespace

void InstallCrashHandler() {
  signal(SIGSEGV, CrashHandler);
  signal(SIGBUS, CrashHandler);
}

}  // namespace stacktrack::bench::workload
