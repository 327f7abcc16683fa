// Figure 2 (right): lock-free hash table throughput, 10K nodes, 20% mutations.
// Runs on the shared workload engine; see fig1_list.cc. --scheme= adds columns.
#include "bench/scheme_cli.h"
#include "bench/workload/runner.h"
#include "ds/hashtable.h"

namespace stacktrack::bench {
namespace {

template <typename Smr>
double Point(const workload::Scenario& scenario) {
  ds::LockFreeHashTable<Smr> table(4096);
  return workload::RunMapScenario<Smr>(table, scenario).ops_per_sec;
}

int Main(int argc, char** argv) {
  std::vector<std::string> schemes;
  int exit_code = 0;
  if (!ParseFigSchemes(argc, argv, {"original", "hazard", "epoch", "stacktrack"},
                       &schemes, &exit_code)) {
    return exit_code;
  }
  workload::PrintHeader("Fig 2: Hash-table throughput (ops/sec)",
                        "10K nodes, 4096 buckets, 20% mutations, keys 1..20000");
  std::printf("%8s", "threads");
  for (const std::string& name : schemes) {
    smr::DispatchScheme(name, [&]<typename Smr>(const smr::SchemeInfo& info) {
      std::printf(" %14s", info.display);
    });
  }
  std::printf("\n");
  const auto env = workload::EnvConfig::Load();
  for (const uint32_t threads : env.threads) {
    workload::Scenario scenario;
    scenario.name = "fig2-hash";
    scenario.mix.insert_percent = 10;
    scenario.mix.remove_percent = 10;
    scenario.keys.key_range = 20000;
    scenario.prefill = 10000;
    scenario.threads = threads;
    scenario.measure_latency = false;
    env.Apply(&scenario);
    std::printf("%8u", threads);
    for (const std::string& name : schemes) {
      smr::DispatchScheme(name, [&]<typename Smr>(const smr::SchemeInfo&) {
        std::printf(" %14.0f", Point<Smr>(scenario));
      });
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace stacktrack::bench

int main(int argc, char** argv) { return stacktrack::bench::Main(argc, argv); }
