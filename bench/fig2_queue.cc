// Figure 2 (left): Michael-Scott queue throughput, 20% mutations (enq/deq), 80% peeks.
// Runs on the shared workload engine; see fig1_list.cc. --scheme= adds columns.
#include "bench/scheme_cli.h"
#include "bench/workload/runner.h"
#include "ds/queue.h"

namespace stacktrack::bench {
namespace {

template <typename Smr>
double Point(const workload::Scenario& scenario) {
  ds::LockFreeQueue<Smr> queue;
  return workload::RunQueueScenario<Smr>(queue, scenario).ops_per_sec;
}

int Main(int argc, char** argv) {
  std::vector<std::string> schemes;
  int exit_code = 0;
  if (!ParseFigSchemes(argc, argv, {"original", "hazard", "epoch", "stacktrack"},
                       &schemes, &exit_code)) {
    return exit_code;
  }
  workload::PrintHeader("Fig 2: Queue throughput (ops/sec)",
                        "20% mutations (10% enq / 10% deq), 1K prefill");
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
    scenario.name = "fig2-queue";
    scenario.mix.insert_percent = 10;  // enqueue
    scenario.mix.remove_percent = 10;  // dequeue; remainder peeks
    scenario.prefill = 1000;
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
