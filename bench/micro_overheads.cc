// Microbenchmarks for the per-scheme instrumentation costs the paper reasons about:
// the hazard-pointer publish+fence, the epoch announcement, the StackTrack split
// checkpoint (a counter increment in the common case), register exposure at segment
// commit, one reclaimer-side thread inspection, and the per-hop cost of a list
// traversal as the compiled data structure pays it.
#include <benchmark/benchmark.h>

#include <atomic>
#include <vector>

#include "core/free_proc.h"
#include "core/split_engine.h"
#include "ds/list.h"
#include "smr/epoch.h"
#include "smr/hazard.h"
#include "smr/leaky.h"
#include "smr/stacktrack_smr.h"

namespace stacktrack {
namespace {

void BM_HazardProtect(benchmark::State& state) {
  runtime::ThreadScope scope;
  smr::HazardSmr::Domain domain;
  auto& h = domain.AcquireHandle();
  static std::atomic<uint64_t> field{42};
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.Protect(field, 0));  // load + publish + fence + reload
  }
}
BENCHMARK(BM_HazardProtect);

void BM_EpochOpBrackets(benchmark::State& state) {
  runtime::ThreadScope scope;
  smr::EpochSmr::Domain domain;
  auto& h = domain.AcquireHandle();
  for (auto _ : state) {
    h.OpBegin(0);
    h.OpEnd();
  }
}
BENCHMARK(BM_EpochOpBrackets);

void BM_StCheckpointNoCommit(benchmark::State& state) {
  runtime::ThreadScope scope;
  core::StConfig config;
  config.initial_split_limit = 1u << 30;  // never actually split
  config.max_split_limit = 1u << 30;
  smr::StackTrackSmr::Domain domain(config);
  auto& h = domain.AcquireHandle();
  ST_OP_BEGIN(h, 0);
  for (auto _ : state) {
    ST_CHECKPOINT(h);  // common case: one private counter increment + compare
  }
  h.OpEnd();
}
BENCHMARK(BM_StCheckpointNoCommit);

void BM_StSegmentCommitAndRearm(benchmark::State& state) {
  runtime::ThreadScope scope;
  core::StConfig config;
  config.initial_split_limit = 1;  // every checkpoint commits and re-arms
  config.max_split_limit = 1;
  smr::StackTrackSmr::Domain domain(config);
  auto& h = domain.AcquireHandle();
  ST_OP_BEGIN(h, 1);
  for (auto _ : state) {
    ST_CHECKPOINT(h);  // expose registers + commit + begin next segment
  }
  h.OpEnd();
}
BENCHMARK(BM_StSegmentCommitAndRearm);

void BM_StOpBrackets(benchmark::State& state) {
  runtime::ThreadScope scope;
  smr::StackTrackSmr::Domain domain;
  auto& h = domain.AcquireHandle();
  for (auto _ : state) {
    ST_OP_BEGIN(h, 2);
    ST_OP_END(h);
  }
}
BENCHMARK(BM_StOpBrackets);

// One thread's root collection (12 exposed registers + a 16-word tracked frame): the
// per-thread unit cost of a reclamation round's root table.
void BM_CollectThreadRoots(benchmark::State& state) {
  runtime::ThreadScope scope;
  smr::StackTrackSmr::Domain domain;
  auto& h = domain.AcquireHandle();
  core::TrackedFrame<16> frame(h);
  std::vector<uintptr_t> roots;
  roots.reserve(64);
  for (auto _ : state) {
    roots.clear();
    benchmark::DoNotOptimize(core::CollectThreadRoots(h, h, /*check_refset=*/false, roots));
  }
}
BENCHMARK(BM_CollectThreadRoots);

void BM_ListContains_StackTrack(benchmark::State& state) {
  runtime::ThreadScope scope;
  smr::StackTrackSmr::Domain domain;
  auto& h = domain.AcquireHandle();
  ds::LockFreeList<smr::StackTrackSmr> list;
  for (uint64_t key = 1; key <= 512; ++key) {
    list.Insert(h, key * 2, key);
  }
  uint64_t key = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.Contains(h, key * 2 % 1024));
    key = key * 1664525 + 1013904223;
  }
}
BENCHMARK(BM_ListContains_StackTrack);

// Per-hop cost of a whole traversal: Contains of a key past the tail walks all 256
// nodes, so time_per_hop is the per-call time over 256. Unlike a tight TxLoad loop this
// pays everything a compiled hop pays: the instrumented loads, the checkpoint, the
// preemption point, and (StackTrack) the segment commits the split limit forces.
template <typename Smr>
void BM_ListHop(benchmark::State& state) {
  constexpr uint64_t kNodes = 256;
  runtime::ThreadScope scope;
  typename Smr::Domain domain;
  auto& h = domain.AcquireHandle();
  ds::LockFreeList<Smr> list;
  for (uint64_t key = 1; key <= kNodes; ++key) {
    list.Insert(h, key, key);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(list.Contains(h, kNodes + 1));
  }
  state.counters["time_per_hop"] = benchmark::Counter(
      kNodes, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK_TEMPLATE(BM_ListHop, smr::StackTrackSmr);
BENCHMARK_TEMPLATE(BM_ListHop, smr::LeakySmr);

}  // namespace
}  // namespace stacktrack

BENCHMARK_MAIN();
