// Figure 1 (left): lock-free list throughput, 5K nodes, 20% mutations, threads 1-16.
// Default columns: Original (no reclamation), Hazard pointers, Epoch, StackTrack,
// DTA; any registry scheme is runnable via --scheme= (see bench/scheme_cli.h).
//
// Runs on the shared workload engine (bench/workload/): the scenario below is the
// whole workload description; there is no per-binary timed loop.
#include "bench/scheme_cli.h"
#include "bench/workload/runner.h"
#include "ds/list.h"

namespace stacktrack::bench {
namespace {

template <typename Smr>
double Point(const workload::Scenario& scenario) {
  ds::LockFreeList<Smr> list;
  return workload::RunMapScenario<Smr>(list, scenario).ops_per_sec;
}

int Main(int argc, char** argv) {
  std::vector<std::string> schemes;
  int exit_code = 0;
  if (!ParseFigSchemes(argc, argv,
                       {"original", "hazard", "epoch", "stacktrack", "dta"},
                       &schemes, &exit_code)) {
    return exit_code;
  }
  workload::PrintHeader("Fig 1: List throughput (ops/sec)",
                        "5K nodes, 20% mutations, keys 1..10000");
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
    scenario.name = "fig1-list";
    scenario.mix.insert_percent = 10;
    scenario.mix.remove_percent = 10;
    scenario.keys.key_range = 10000;
    scenario.prefill = 5000;
    scenario.threads = threads;
    scenario.measure_latency = false;  // paper-style pure-throughput points
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
