// Microbenchmarks for the software best-effort HTM substrate: transaction begin/commit
// overhead, per-access instrumentation cost, and the non-transactional interop ops the
// slow path and reclaimer use.
//
// `micro_htm --ab` switches to the STM engine A/B harness instead: it runs the same
// multi-threaded workload presets (read_only, write_heavy, zipfian_conflict) against
// both software engines (ST_STM=lazy and ST_STM=2pl) in one process and prints
// greppable per-cell lines plus a JSON document (--json=FILE). tools/check_stm_ab.sh
// gates CI on the output.
#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/workload/scenario.h"
#include "htm/htm.h"
#include "runtime/backoff.h"
#include "runtime/machine_model.h"
#include "runtime/rand.h"
#include "runtime/thread_registry.h"
#include "runtime/trace.h"

namespace stacktrack {
namespace {

std::array<std::atomic<uint64_t>, 1024>& SharedWords() {
  alignas(64) static std::array<std::atomic<uint64_t>, 1024> words{};
  return words;
}

void BM_SoftTxEmpty(benchmark::State& state) {
  runtime::ThreadScope scope;
  for (auto _ : state) {
    const int rc = ST_HTM_BEGIN_POINT();
    benchmark::DoNotOptimize(rc);
    htm::TxCommit();
  }
}
BENCHMARK(BM_SoftTxEmpty);

void BM_SoftTxReadOnly(benchmark::State& state) {
  runtime::ThreadScope scope;
  auto& words = SharedWords();
  const std::size_t reads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const int rc = ST_HTM_BEGIN_POINT();
    benchmark::DoNotOptimize(rc);
    uint64_t sum = 0;
    for (std::size_t i = 0; i < reads; ++i) {
      sum += htm::TxLoad(words[i * 8 % words.size()]);
    }
    benchmark::DoNotOptimize(sum);
    htm::TxCommit();
  }
  state.SetItemsProcessed(state.iterations() * reads);
}
BENCHMARK(BM_SoftTxReadOnly)->Arg(8)->Arg(32)->Arg(128);

void BM_SoftTxReadWrite(benchmark::State& state) {
  runtime::ThreadScope scope;
  auto& words = SharedWords();
  const std::size_t writes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const int rc = ST_HTM_BEGIN_POINT();
    benchmark::DoNotOptimize(rc);
    for (std::size_t i = 0; i < writes; ++i) {
      std::atomic<uint64_t>& word = words[i * 8 % words.size()];
      htm::TxStore(word, htm::TxLoad(word) + 1);
    }
    htm::TxCommit();
  }
  state.SetItemsProcessed(state.iterations() * writes);
}
BENCHMARK(BM_SoftTxReadWrite)->Arg(4)->Arg(16)->Arg(64);

void BM_SafeLoad(benchmark::State& state) {
  auto& words = SharedWords();
  for (auto _ : state) {
    benchmark::DoNotOptimize(htm::SafeLoad(words[0]));
  }
}
BENCHMARK(BM_SafeLoad);

void BM_SafeCas(benchmark::State& state) {
  auto& words = SharedWords();
  uint64_t value = 0;
  for (auto _ : state) {
    htm::SafeCas(words[1], value, value + 1);
    ++value;
  }
}
BENCHMARK(BM_SafeCas);

void BM_QuarantineRange(benchmark::State& state) {
  alignas(64) static char block[256];
  for (auto _ : state) {
    htm::QuarantineRange(block, sizeof(block));
  }
}
BENCHMARK(BM_QuarantineRange);

// ---------------------------------------------------------------------------
// STM engine A/B harness (`micro_htm --ab`).
// ---------------------------------------------------------------------------

namespace ab {

// Each word sits on its own cache line so the access pattern maps 1:1 onto
// stripes/orecs, like real node fields do.
constexpr std::size_t kWordStride = 8;
constexpr std::size_t kTableWords = 1024;

std::atomic<uint64_t>& TableWord(std::size_t i) {
  alignas(64) static std::array<std::atomic<uint64_t>, kTableWords * kWordStride> table{};
  return table[(i % kTableWords) * kWordStride];
}

struct Preset {
  const char* name;
  std::size_t key_space;   // distinct words touched (zipf-distributed over these)
  double zipf_theta;       // 0 = uniform
  std::size_t tx_accesses; // accesses per transaction
  double write_frac;       // fraction of accesses that are read-modify-writes
};

// read_only leans on skew so transactions re-touch hot words: the engines' re-read
// paths (lazy: per-read log append; 2pl: one own-slot byte check) are what the 10%
// regression gate actually measures. write_heavy keeps a small hot set and long
// transactions: the lazy engine pays a linear write-log scan per access plus
// commit-time lock/validate/publish, the 2PL engine writes in place. zipfian_conflict
// is the contended regime the paper's Figure 3 cares about: cross-thread collisions on
// the zipf head, resolved at commit (lazy) vs eagerly by priority (2pl).
constexpr Preset kPresets[] = {
    {"read_only", 16, 0.99, 64, 0.0},
    {"write_heavy", 16, 0.60, 32, 0.5},
    {"zipfian_conflict", 48, 0.99, 56, 0.5},
};

struct Cell {
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t aborts_by_cause[8] = {};  // indexed by AbortCause code
  double seconds = 0;
  double txs_per_sec = 0;
  double ops_per_sec = 0;
};

Cell RunCell(const Preset& preset, htm::StmEngine engine, unsigned threads,
             unsigned duration_ms) {
  htm::SelectStmEngine(engine);
  std::atomic<bool> stop{false};
  std::vector<uint64_t> commits(threads, 0);
  std::vector<uint64_t> aborts(threads, 0);
  std::vector<std::array<uint64_t, 8>> causes(threads, std::array<uint64_t, 8>{});

  auto worker = [&](unsigned t) {
    runtime::ThreadScope scope;
    runtime::ZipfGenerator zipf(preset.key_space, preset.zipf_theta, /*seed=*/1069 + t);
    runtime::Xorshift128 rng(0xab5eed + t);
    std::size_t keys[64];
    while (!stop.load(std::memory_order_relaxed)) {
      // Key choices drawn outside the transaction so aborted attempts replay the
      // same footprint (and the RNG cost stays out of the measured abort window).
      for (std::size_t i = 0; i < preset.tx_accesses; ++i) {
        keys[i] = preset.zipf_theta > 0 ? zipf.Next() : rng.NextBounded(preset.key_space);
      }
      runtime::ExponentialBackoff retry;
      volatile unsigned failures = 0;  // survives the abort longjmp
      while (true) {
        const int rc = ST_HTM_BEGIN_POINT();
        if (rc != htm::kTxStarted) {
          ++aborts[t];
          ++causes[t][static_cast<std::size_t>(rc) & 7];
          // Same pacing the split engine applies between attempts: brief backoff,
          // then cede the CPU so the conflicting holder can finish.
          failures = failures + 1;
          if (failures > 4) {
            std::this_thread::yield();
          } else {
            retry.Pause();
          }
          continue;
        }
        for (std::size_t i = 0; i < preset.tx_accesses; ++i) {
          std::atomic<uint64_t>& word = TableWord(keys[i]);
          const uint64_t v = htm::TxLoad(word);
          if (preset.write_frac > 0 && (i % 2 == 0) &&
              static_cast<double>(i) < preset.write_frac * 2 * preset.tx_accesses) {
            htm::TxStore(word, v + 1);
          }
        }
        htm::TxCommit();
        break;
      }
      ++commits[t];
    }
  };

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back(worker, t);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true);
  for (auto& th : pool) {
    th.join();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  Cell cell;
  cell.seconds = seconds;
  for (unsigned t = 0; t < threads; ++t) {
    cell.commits += commits[t];
    cell.aborts += aborts[t];
    for (std::size_t c = 0; c < 8; ++c) {
      cell.aborts_by_cause[c] += causes[t][c];
    }
  }
  cell.txs_per_sec = static_cast<double>(cell.commits) / seconds;
  cell.ops_per_sec = cell.txs_per_sec * static_cast<double>(preset.tx_accesses);
  return cell;
}

int Main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }
  const auto env = bench::workload::EnvConfig::Load(/*default_ms=*/400, {4});
  const unsigned threads = env.threads.front();
  const unsigned duration_ms = env.duration_ms;

  // Measure the engines, not the injected hardware model: plenty of modeled cores so
  // 4 worker threads run with the full capacity budget and no spurious-abort draws
  // (both engines' fast paths stay armed, as in the threads<=cores regime).
  runtime::MachineConfig config;
  config.physical_cores = 8;
  config.smt_ways = 2;
  runtime::MachineModel::Instance().Configure(config);

  const htm::StmEngine engines[] = {htm::StmEngine::kLazy, htm::StmEngine::kOrec};
  const char* engine_names[] = {"lazy", "2pl"};
  // The duration budget is split into interleaved slices alternating between the
  // engines, so CPU-frequency drift and scheduler phase on a busy host land on both
  // sides of the A/B equally instead of biasing whichever cell ran second.
  constexpr unsigned kReps = 4;

  std::string json = "{\n  \"threads\": " + std::to_string(threads) +
                     ",\n  \"duration_ms\": " + std::to_string(duration_ms) +
                     ",\n  \"cells\": [\n";
  bool first = true;
  for (const Preset& preset : kPresets) {
    Cell cells[2];
    uint64_t traced[2] = {0, 0};
    for (unsigned rep = 0; rep < kReps; ++rep) {
      for (int e = 0; e < 2; ++e) {
        runtime::trace::ResetAll();
        runtime::trace::Arm(true);
        const Cell slice = RunCell(preset, engines[e], threads, duration_ms / kReps);
        runtime::trace::Arm(false);
        cells[e].commits += slice.commits;
        cells[e].aborts += slice.aborts;
        cells[e].seconds += slice.seconds;
        for (std::size_t c = 0; c < 8; ++c) {
          cells[e].aborts_by_cause[c] += slice.aborts_by_cause[c];
        }
#if defined(STACKTRACK_TRACE_ENABLED)
        for (const runtime::trace::MergedRecord& r : runtime::trace::CollectMerged()) {
          if (r.event == runtime::trace::Event::kSegmentAbort) {
            ++traced[e];
          }
        }
#endif
      }
    }
    for (int e = 0; e < 2; ++e) {
      Cell& cell = cells[e];
      cell.txs_per_sec = static_cast<double>(cell.commits) / cell.seconds;
      cell.ops_per_sec = cell.txs_per_sec * static_cast<double>(preset.tx_accesses);
      // The begin-point return codes give the authoritative per-cause counts; the
      // trace exporter's view (satellite: histograms via trace records) is printed
      // alongside and must agree modulo ring-buffer overwrite.
      const uint64_t traced_aborts = traced[e];
      const double abort_rate =
          static_cast<double>(cell.aborts) /
          static_cast<double>(cell.commits + cell.aborts == 0 ? 1 : cell.commits + cell.aborts);
      std::printf(
          "AB preset=%s engine=%s threads=%u txs_per_sec=%.0f ops_per_sec=%.0f "
          "commits=%llu aborts=%llu abort_rate=%.6f traced_aborts=%llu\n",
          preset.name, engine_names[e], threads, cell.txs_per_sec, cell.ops_per_sec,
          static_cast<unsigned long long>(cell.commits),
          static_cast<unsigned long long>(cell.aborts), abort_rate,
          static_cast<unsigned long long>(traced_aborts));
      std::printf("AB-CAUSES preset=%s engine=%s", preset.name, engine_names[e]);
      for (std::size_t c = 1; c < 8; ++c) {
        if (cell.aborts_by_cause[c] != 0) {
          std::printf(" %s=%llu", htm::AbortCauseName(static_cast<htm::AbortCause>(c)),
                      static_cast<unsigned long long>(cell.aborts_by_cause[c]));
        }
      }
      std::printf("\n");

      if (!first) {
        json += ",\n";
      }
      first = false;
      json += "    {\"preset\": \"" + std::string(preset.name) + "\", \"engine\": \"" +
              engine_names[e] + "\", \"txs_per_sec\": " + std::to_string(cell.txs_per_sec) +
              ", \"ops_per_sec\": " + std::to_string(cell.ops_per_sec) +
              ", \"commits\": " + std::to_string(cell.commits) +
              ", \"aborts\": " + std::to_string(cell.aborts) +
              ", \"abort_rate\": " + std::to_string(abort_rate) + ", \"aborts_by_cause\": {";
      bool first_cause = true;
      for (std::size_t c = 1; c < 8; ++c) {
        if (cell.aborts_by_cause[c] != 0) {
          if (!first_cause) {
            json += ", ";
          }
          first_cause = false;
          json += "\"" + std::string(htm::AbortCauseName(static_cast<htm::AbortCause>(c))) +
                  "\": " + std::to_string(cell.aborts_by_cause[c]);
        }
      }
      json += "}}";
    }
  }
  json += "\n  ]\n}\n";

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "micro_htm: cannot write %s\n", json_path);
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  return 0;
}

}  // namespace ab

}  // namespace
}  // namespace stacktrack

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ab") == 0) {
      return stacktrack::ab::Main(argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
