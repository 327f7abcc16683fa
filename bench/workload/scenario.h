// Declarative op-mix scenarios for the workload engine, plus the one shared parser
// for the bench environment knobs.
//
// A Scenario is the complete description of one benchmark point: what mix of
// operations to run (read/insert/remove/scan percentages), how keys are drawn
// (uniform or zipfian, range, seed), how the structure is prefilled, how many
// threads for how long, and whether per-op latency is recorded. The runner
// (runner.h) executes a Scenario against any Domain + structure; the per-figure
// binaries and bench/ycsb_kv only declare scenarios and print results.
//
// EnvConfig is the one parser for the bench environment knobs:
//   ST_BENCH_MS       per-point measure window in ms (positive integer)
//   ST_BENCH_THREADS  comma list of thread counts (each 1..runtime::kMaxThreads)
//   ST_BENCH_SEED     scenario base seed (decimal or 0x hex)
//   ST_TRACE_ARM      if set, arm event tracing for the run
// A malformed ST_BENCH_MS or ST_BENCH_THREADS is a usage error: the value is
// printed to stderr and the process exits with status 2.
#ifndef STACKTRACK_BENCH_WORKLOAD_SCENARIO_H_
#define STACKTRACK_BENCH_WORKLOAD_SCENARIO_H_

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/workload/generator.h"
#include "runtime/thread_registry.h"

namespace stacktrack::bench::workload {

// Operation kinds the engine dispatches. Structure adapters map them onto their own
// surface (maps: Contains/Insert/Remove + scan as a key-range read; queues:
// Peek/Enqueue/Dequeue with scan folded into reads).
enum class OpKind : uint8_t {
  kRead = 0,
  kInsert,
  kRemove,
  kScan,
  kCount,
};
inline constexpr uint32_t kOpKinds = static_cast<uint32_t>(OpKind::kCount);

const char* OpKindName(OpKind kind);

// Percentages; must sum to at most 100, remainder goes to reads. This keeps
// "mutation_percent = 20" style declarations exact: insert 10 / remove 10 / rest
// reads is {.insert = 10, .remove = 10}.
struct OpMix {
  uint32_t insert_percent = 10;
  uint32_t remove_percent = 10;
  uint32_t scan_percent = 0;

  uint32_t read_percent() const {
    const uint32_t taken = insert_percent + remove_percent + scan_percent;
    return taken >= 100 ? 0 : 100 - taken;
  }
};

struct Scenario {
  std::string name = "custom";
  OpMix mix;
  KeyStreamSpec keys;
  uint64_t prefill = 5000;
  uint32_t threads = 4;
  uint32_t duration_ms = 150;
  uint32_t scan_length = 16;   // consecutive index keys touched per scan op
  // Thread ramp: worker t enters the workload t * ramp_step_ms after the barrier
  // (staggered arrival, the serving-system warmup shape). 0 = all start together.
  uint32_t ramp_step_ms = 0;
  bool inject_preemption = true;  // simulated preemption once threads > hw contexts
  bool measure_latency = true;    // per-op monotonic timestamps -> histograms
};

// YCSB-style presets (Cooper et al. workload letters, adapted to this key-value
// surface). All zipfian theta 0.99 over `key_range` keys, prefilled to half range:
//   A  update-heavy  50% read / 50% insert(update)
//   B  read-mostly   95% read /  5% insert(update)
//   C  read-only    100% read
// Every preset also exists in a "+scan" variant used by the ycsb_kv secondary-index
// path (5% of reads become index scans).
Scenario YcsbScenario(char letter, uint64_t key_range = 16384, bool with_scans = false);

// One-stop ST_BENCH_* environment view shared by every bench binary.
struct EnvConfig {
  uint32_t duration_ms;
  std::vector<uint32_t> threads;
  uint64_t seed;
  bool trace_arm;

  static EnvConfig Load(uint32_t default_ms = 150,
                        std::vector<uint32_t> default_threads = {1, 2, 3, 4, 6, 8, 12,
                                                                 16},
                        uint64_t default_seed = 0x5eedULL) {
    EnvConfig env;
    env.duration_ms = default_ms;
    if (const char* value = std::getenv("ST_BENCH_MS"); value != nullptr) {
      env.duration_ms = ParseCount("ST_BENCH_MS", value, value, UINT32_MAX);
    }
    env.threads = std::move(default_threads);
    if (const char* value = std::getenv("ST_BENCH_THREADS"); value != nullptr) {
      env.threads.clear();
      const std::string spec(value);
      std::size_t begin = 0;
      for (;;) {
        const std::size_t comma = spec.find(',', begin);
        const std::size_t end = comma == std::string::npos ? spec.size() : comma;
        env.threads.push_back(ParseCount("ST_BENCH_THREADS", value,
                                         spec.substr(begin, end - begin),
                                         runtime::kMaxThreads));
        if (comma == std::string::npos) {
          break;
        }
        begin = comma + 1;
      }
    }
    env.seed = default_seed;
    if (const char* value = std::getenv("ST_BENCH_SEED"); value != nullptr) {
      env.seed = std::strtoull(value, nullptr, 0);
    }
    env.trace_arm = std::getenv("ST_TRACE_ARM") != nullptr;
    return env;
  }

  // Stamp the per-run knobs onto a scenario (thread count stays the caller's loop
  // variable).
  void Apply(Scenario* scenario) const {
    scenario->duration_ms = duration_ms;
    scenario->keys.seed = seed;
  }

 private:
  // One decimal entry in 1..max; anything else (empty, signed, trailing junk, zero,
  // out of range) exits 2 instead of becoming a silent 0-thread or 0 ms point.
  static uint32_t ParseCount(const char* name, const char* value, const std::string& entry,
                             uint32_t max) {
    char* end = nullptr;
    const unsigned long long parsed =
        !entry.empty() && std::isdigit(static_cast<unsigned char>(entry[0]))
            ? std::strtoull(entry.c_str(), &end, 10)
            : 0;
    if (parsed == 0 || parsed > max || *end != '\0') {
      std::fprintf(stderr, "invalid %s=\"%s\": expected positive integers <= %u\n", name,
                   value, max);
      std::exit(2);
    }
    return static_cast<uint32_t>(parsed);
  }
};

}  // namespace stacktrack::bench::workload

#endif  // STACKTRACK_BENCH_WORKLOAD_SCENARIO_H_
