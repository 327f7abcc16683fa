// kvbench: one run of the repository benchmark — StackTrack serving a sharded KV
// service (the bench/ycsb_kv shape) on one named workload, checked for correctness.
//
// Service: 8 hash-table shards hold the records, a list-based secondary index over
// coarse key ranges (key >> 6) backs range scans, and a queue changelog takes one
// enqueue + one dequeue per update, so a composite update crosses four structure
// calls. Keys are zipfian (theta 0.99) over 16384 keys; 8192 distinct keys are loaded
// uniformly through the composite update before timing. The load is a closed loop of
// 3 client threads in this process. Inputs come from the shared workload engine
// (bench/workload): per-thread KeyStreams derived from --seed, the scenario mixes,
// the zipfian CDF, and PickOp.
//
// Workloads:
//   kv-update  YCSB-A: 50% point reads, 50% composite updates
//   kv-read    YCSB-C: 100% point reads
//   kv-scan    95% point reads, 5% index scans of 16 consecutive ranges
//
// Modes:
//   --mode=timed   the end-to-end run: tracing off, no benchmark-side probes.
//                  The window is cut into 0.5 s slices. Throughput is the median
//                  slice rate; a latency percentile is the median, over workers and
//                  slices, of each worker's percentile within the slice. Also peak
//                  RSS, and the median set-up time over 9 set-ups.
//   --mode=traced  the per-layer run, in three phases on the same seed: StackTrack
//                  with structure-call timers, counter reads and the trace plane
//                  armed; StackTrack plain (for the tracing overhead); Original.
//
// Correctness, in every phase: a read of a loaded key that misses, a scan that finds
// fewer populated ranges than the load guarantees, and a changelog dequeue that finds
// the queue empty each count as a failed op (these mixes never remove keys). At
// quiescence the key set must equal loaded + updated keys, every loaded index range
// must be present, the changelog must be empty, and frees must not exceed retires.
// Workers that have not stopped --watchdog-s after the window closes are reported by
// name, their in-flight ops count as failed, and the process exits without joining
// them.
//
// Output: one JSON document on stdout (perfbench/run.py parses it). Exit codes:
// 0 correct, 1 a check failed or a worker hung, 2 usage, 3 refused to time (debug
// build, trace armed, or ST_* variables in the environment).
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench/workload/generator.h"
#include "bench/workload/histogram.h"
#include "bench/workload/runner.h"
#include "bench/workload/scenario.h"
#include "core/predictor.h"
#include "core/stats.h"
#include "core/stats_export.h"
#include "ds/hashtable.h"
#include "ds/list.h"
#include "ds/queue.h"
#include "htm/htm.h"
#include "runtime/barrier.h"
#include "runtime/pool_alloc.h"
#include "runtime/thread_registry.h"
#include "runtime/trace.h"
#include "smr/registry.h"

extern char** environ;

namespace stacktrack::perfbench {
namespace {

namespace wl = bench::workload;
using wl::OpKind;
using runtime::trace::NowNanos;

constexpr uint32_t kThreads = 3;
constexpr uint64_t kKeyRange = 16384;
constexpr uint64_t kLoadKeys = 8192;
constexpr uint32_t kShards = 8;
constexpr uint32_t kBucketsPerShard = 512;
constexpr uint32_t kIndexShiftBits = 6;
constexpr double kSliceSeconds = 0.5;
constexpr uint32_t kOriginalMaxSeconds = 2;  // Original leaks every retired node
constexpr uint32_t kTimelinePeriodMs = 10;
constexpr uint32_t kSetupReps = 9;  // setup_s is the median over this many set-ups

// ---- Percentiles --------------------------------------------------------------------

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n == 0 ? 0 : n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Counts on the engine's LatencyHistogram bucket geometry, with the percentile
// interpolated linearly inside its bucket, so a reported time is not pinned to a
// bucket edge.
class Histogram {
  using Geometry = wl::LatencyHistogram;

 public:
  void Record(uint64_t value_ns) {
    ++counts_[Geometry::BucketIndex(value_ns)];
    ++count_;
  }

  void Merge(const Histogram& other) {
    for (uint32_t i = 0; i < Geometry::kBucketCount; ++i) {
      counts_[i] += other.counts_[i];
    }
    count_ += other.count_;
  }

  double Percentile(double p) const {
    const double rank = p / 100.0 * static_cast<double>(count_);
    uint64_t below = 0;
    for (uint32_t i = 0; i < Geometry::kBucketCount; ++i) {
      if (counts_[i] == 0) {
        continue;
      }
      if (static_cast<double>(below + counts_[i]) >= rank) {
        const double lower = static_cast<double>(Geometry::BucketLower(i));
        const double width = static_cast<double>(Geometry::BucketUpper(i) + 1) - lower;
        return lower + width * (rank - static_cast<double>(below)) /
                           static_cast<double>(counts_[i]);
      }
      below += counts_[i];
    }
    return 0.0;
  }

  uint64_t count() const { return count_; }

  void Clear() {
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = 0;
  }

 private:
  std::vector<uint64_t> counts_ = std::vector<uint64_t>(Geometry::kBucketCount, 0);
  uint64_t count_ = 0;
};

// ---- Structure-call timers (traced runs) --------------------------------------------

enum class Call : uint32_t {
  kHashContains,
  kHashInsert,
  kIndexInsert,
  kIndexContains,
  kQueueEnqueue,
  kQueueDequeue,
  kCount,
};
constexpr uint32_t kCalls = static_cast<uint32_t>(Call::kCount);
constexpr const char* kCallMetric[kCalls] = {
    "ds.hash_contains_ns", "ds.hash_insert_ns",   "ds.index_insert_ns",
    "ds.index_contains_ns", "ds.queue_enqueue_ns", "ds.queue_dequeue_ns",
};

struct CallTimers {
  Histogram calls[kCalls];
};

template <bool kTimeCalls, typename Fn>
auto TimeCall(CallTimers* timers, Call call, Fn&& fn) {
  if constexpr (kTimeCalls) {
    const uint64_t begin = NowNanos();
    auto result = fn();
    timers->calls[static_cast<uint32_t>(call)].Record(NowNanos() - begin);
    return result;
  } else {
    return fn();
  }
}

// ---- The KV service -----------------------------------------------------------------

// bench/ycsb_kv.cc's ShardedKv, with each public structure call optionally timed.
template <typename Smr, bool kTimeCalls>
class ShardedKv {
 public:
  using Handle = typename Smr::Handle;

  ShardedKv() {
    for (uint32_t s = 0; s < kShards; ++s) {
      shards_.push_back(std::make_unique<ds::LockFreeHashTable<Smr>>(kBucketsPerShard));
    }
  }

  bool Read(Handle& h, uint64_t key, CallTimers* timers) {
    return TimeCall<kTimeCalls>(timers, Call::kHashContains,
                                [&] { return ShardOf(key).Contains(h, key); });
  }

  // Composite update: insert-if-absent into the key's shard, register its index
  // range, then enqueue the key on the changelog and consume one entry. Returns
  // whether the shard insert added the key; *handoff_ok is false when the dequeue
  // found the changelog empty, which a correct queue never does here (every updater
  // enqueues before it dequeues).
  bool Update(Handle& h, uint64_t key, uint64_t value, CallTimers* timers,
              bool* handoff_ok) {
    const bool inserted = TimeCall<kTimeCalls>(
        timers, Call::kHashInsert, [&] { return ShardOf(key).Insert(h, key, value); });
    TimeCall<kTimeCalls>(timers, Call::kIndexInsert,
                         [&] { return index_.Insert(h, IndexKey(key), key); });
    TimeCall<kTimeCalls>(timers, Call::kQueueEnqueue, [&] {
      changelog_.Enqueue(h, key);
      return true;
    });
    *handoff_ok = TimeCall<kTimeCalls>(timers, Call::kQueueDequeue,
                                       [&] { return changelog_.Dequeue(h); })
                      .has_value();
    return inserted;
  }

  // Probes `length` consecutive index ranges from key's range; returns how many are
  // populated.
  uint32_t Scan(Handle& h, uint64_t key, uint32_t length, CallTimers* timers) {
    uint32_t populated = 0;
    const uint64_t start = IndexKey(key);
    for (uint32_t i = 0; i < length; ++i) {
      populated += TimeCall<kTimeCalls>(timers, Call::kIndexContains,
                                        [&] { return index_.Contains(h, start + i); })
                       ? 1
                       : 0;
    }
    return populated;
  }

  std::size_t KeysUnsafe() const {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->SizeUnsafe();
    }
    return total;
  }
  std::size_t ChangelogUnsafe() const { return changelog_.SizeUnsafe(); }

  static uint64_t IndexKey(uint64_t key) { return 1 + (key >> kIndexShiftBits); }

 private:
  ds::LockFreeHashTable<Smr>& ShardOf(uint64_t key) {
    return *shards_[(key * 0x9e3779b97f4a7c15ULL >> 40) & (kShards - 1)];
  }

  std::vector<std::unique_ptr<ds::LockFreeHashTable<Smr>>> shards_;
  ds::LockFreeList<Smr> index_;
  ds::LockFreeQueue<Smr> changelog_;
};

// ---- Workloads ----------------------------------------------------------------------

struct Workload {
  const char* name;
  wl::Scenario scenario;
  OpKind main_op;  // the operation this workload exists to stress
};

std::optional<Workload> FindWorkload(const std::string& name, uint64_t seed) {
  Workload w{nullptr, {}, OpKind::kRead};
  if (name == "kv-update") {
    w = {"kv-update", wl::YcsbScenario('a', kKeyRange), OpKind::kInsert};
  } else if (name == "kv-read") {
    w = {"kv-read", wl::YcsbScenario('c', kKeyRange), OpKind::kRead};
  } else if (name == "kv-scan") {
    w = {"kv-scan", wl::YcsbScenario('c', kKeyRange, /*with_scans=*/true), OpKind::kScan};
  } else {
    return std::nullopt;
  }
  w.scenario.threads = kThreads;
  w.scenario.prefill = kLoadKeys;
  w.scenario.keys.seed = seed;
  return w;
}

// ---- Result document ----------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

// JSON array of already-encoded values.
std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ",") + items[i];
  }
  return out + "]";
}

// Flat "key":value list, rendered as a JSON object.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + JsonString(key) + ":" + json;
    return *this;
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  JsonObject& Num(const std::string& key, double v) { return Raw(key, JsonNumber(v)); }
  JsonObject& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(const std::string& key, bool v) { return Raw(key, v ? "true" : "false"); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Report {
  JsonObject provenance;
  JsonObject metrics;  // name -> {"value","unit","samples"}
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Metric(const std::string& name, double value, const char* unit, uint64_t samples) {
    metrics.Raw(name, JsonObject()
                          .Num("value", value)
                          .Str("unit", unit)
                          .Int("samples", samples)
                          .str());
  }

  bool correct() const { return errors.empty() && failed == 0; }

  // Prints the document and returns the process exit code.
  int Print(const std::string& workload, const std::string& mode, uint64_t seed) const {
    std::vector<std::string> errs;
    for (const std::string& error : errors) {
      errs.push_back(JsonString(error));
    }
    const std::string doc = JsonObject()
                                .Str("workload", workload)
                                .Str("mode", mode)
                                .Int("seed", seed)
                                .Bool("correct", correct())
                                .Int("attempted", attempted)
                                .Int("failed", failed)
                                .Raw("errors", JsonArray(errs))
                                .Raw("provenance", provenance.str())
                                .Raw("metrics", metrics.str())
                                .str();
    std::printf("%s\n", doc.c_str());
    std::fflush(stdout);
    return correct() ? 0 : 1;
  }
};

// ---- One phase: set up, load, run the window, check at quiescence -------------------

struct PhaseOptions {
  const Workload* workload = nullptr;
  double seconds = 0;  // 0 = set-up only (workers stop at the start barrier)
  bool inject_wrong = false;
  bool inject_hang = false;  // self-check: worker 0 never leaves its last operation
  double watchdog_s = 10;
};

struct alignas(64) Worker {
  std::atomic<uint32_t> in_op{0};  // OpKind + 1 while inside an operation
  std::atomic<uint64_t> in_op_key{0};
  std::atomic<bool> done{false};
  uint32_t tid = 0;
  uint64_t ops[wl::kOpKinds] = {};
  uint64_t failed = 0;
  std::vector<uint64_t> slice_ops;
  // Latency per op kind: the open slice's histogram, and each closed slice's
  // percentiles.
  uint32_t open_slice = 0;
  Histogram latency[wl::kOpKinds];
  std::vector<double> slice_p50[wl::kOpKinds];
  std::vector<double> slice_p99[wl::kOpKinds];
  uint64_t latency_samples[wl::kOpKinds] = {};
  std::unique_ptr<CallTimers> timers;  // traced phases only
  htm::TxStats tx_begin;
  htm::TxStats tx_end;
  uint64_t flush_ns = 0;
  std::vector<uint8_t> updated = std::vector<uint8_t>(kKeyRange + 1, 0);

  void CloseSlice() {
    for (uint32_t k = 0; k < wl::kOpKinds; ++k) {
      if (latency[k].count() != 0) {
        slice_p50[k].push_back(latency[k].Percentile(50));
        slice_p99[k].push_back(latency[k].Percentile(99));
        latency_samples[k] += latency[k].count();
        latency[k].Clear();
      }
    }
  }
};

struct PhaseResult {
  double setup_s = 0;
  std::vector<double> slice_rates;
  uint64_t ops[wl::kOpKinds] = {};
  uint64_t total_ops = 0;
  uint64_t failed = 0;
  // Per (worker, slice) latency percentiles in ns, and the samples behind them.
  std::vector<double> slice_p50[wl::kOpKinds];
  std::vector<double> slice_p99[wl::kOpKinds];
  uint64_t latency_samples[wl::kOpKinds] = {};
  // Traced phases: every structure call (load, window, quiescence checks).
  std::unique_ptr<CallTimers> timers;
  core::Stats stats;  // domain counter delta over the window
  uint64_t tx_loads = 0;
  uint64_t tx_stores = 0;
  uint64_t tx_max_footprint = 0;
  uint64_t flush_ns = 0;
  uint64_t pool_allocs = 0;
  std::size_t pool_mapped = 0;
  uint64_t lag_peak = 0;
  uint64_t timeline_samples = 0;
  double abort_time_share = 0;
  double scan_time_share = 0;
  uint64_t trace_records = 0;
  uint64_t trace_dropped = 0;
  double peak_rss_mb = 0;
  std::vector<std::string> errors;

  double Throughput() const { return Median(slice_rates); }
};

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Folds the armed trace into time shares: per thread, segment_begin -> segment_abort
// intervals and scan_begin -> scan_end intervals, over the span the thread's retained
// records cover.
void FoldTrace(PhaseResult* r) {
  using runtime::trace::Event;
  const auto records = runtime::trace::CollectMerged();
  struct PerTid {
    uint64_t first = 0, last = 0, segment_begin = 0, scan_begin = 0;
    bool seen = false;
  };
  std::vector<PerTid> tids(runtime::kMaxThreads);
  uint64_t span = 0, aborted = 0, scanning = 0;
  for (const auto& rec : records) {
    if (rec.tid >= tids.size()) {
      continue;
    }
    PerTid& t = tids[rec.tid];
    if (!t.seen) {
      t.seen = true;
      t.first = rec.ns;
    }
    t.last = rec.ns;
    switch (rec.event) {
      case Event::kSegmentBegin:
        t.segment_begin = rec.ns;
        break;
      case Event::kSegmentAbort:
        if (t.segment_begin != 0) {
          aborted += rec.ns - t.segment_begin;
        }
        t.segment_begin = 0;
        break;
      case Event::kSegmentCommit:
      case Event::kCheckpointSplit:
      case Event::kSlowPathEntry:
        t.segment_begin = 0;
        break;
      case Event::kScanBegin:
        t.scan_begin = rec.ns;
        break;
      case Event::kScanEnd:
        if (t.scan_begin != 0) {
          scanning += rec.ns - t.scan_begin;
        }
        t.scan_begin = 0;
        break;
      default:
        break;
    }
  }
  for (const PerTid& t : tids) {
    span += t.last - t.first;
  }
  r->trace_records = records.size();
  r->trace_dropped = runtime::trace::TotalDropped();
  r->abort_time_share = span == 0 ? 0 : static_cast<double>(aborted) / span;
  r->scan_time_share = span == 0 ? 0 : static_cast<double>(scanning) / span;
}

// Waits until every worker has stopped or `watchdog_s` has passed since the window
// closed. Returns one line per worker still running: a hang.
std::vector<std::string> WaitForWorkers(const std::vector<std::unique_ptr<Worker>>& workers,
                                        double watchdog_s) {
  const uint64_t deadline = NowNanos() + static_cast<uint64_t>(watchdog_s * 1e9);
  std::vector<std::string> stuck;
  for (std::size_t t = 0; t < workers.size(); ++t) {
    const Worker& w = *workers[t];
    while (!w.done.load(std::memory_order_acquire) && NowNanos() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (w.done.load(std::memory_order_acquire)) {
      continue;
    }
    const uint32_t in_op = w.in_op.load(std::memory_order_relaxed);
    std::string where = ", between operations";
    if (in_op != 0) {
      where = std::string(", in ") + wl::OpKindName(static_cast<OpKind>(in_op - 1)) +
              " of key " + std::to_string(w.in_op_key.load(std::memory_order_relaxed));
    }
    stuck.push_back("worker " + std::to_string(t) + " (tid " + std::to_string(w.tid) +
                    ") did not stop within " + JsonNumber(watchdog_s) + " s" + where);
  }
  return stuck;
}

template <typename Smr, bool kTraced>
PhaseResult RunPhase(typename Smr::Domain& domain, const PhaseOptions& opt,
                     const Report& report_so_far, const std::string& mode) {
  constexpr bool kStackTrack = std::is_same_v<Smr, smr::StackTrackSmr>;
  const Workload& workload = *opt.workload;
  const wl::Scenario& scenario = workload.scenario;
  PhaseResult result;
  if constexpr (kTraced) {
    result.timers = std::make_unique<CallTimers>();
  }
  const uint64_t setup_begin = NowNanos();

  ShardedKv<Smr, kTraced> kv;
  runtime::ThreadScope main_scope;
  auto& main_handle = domain.AcquireHandle();

  // Load phase: uniform keys through the composite update until kLoadKeys distinct
  // keys are present (every index range ends up registered).
  std::vector<uint8_t> loaded(kKeyRange + 1, 0);
  {
    wl::KeyStreamSpec load_spec = scenario.keys;
    load_spec.dist = wl::KeyDist::kUniform;
    wl::KeyStream keys(load_spec, nullptr, scenario.threads + 1);
    uint64_t distinct = 0;
    uint64_t value = 0;
    while (distinct < scenario.prefill) {
      const uint64_t key = keys.Next();
      bool handoff_ok = true;
      if (kv.Update(main_handle, key, ++value, result.timers.get(), &handoff_ok)) {
        loaded[key] = 1;
        ++distinct;
      }
      if (!handoff_ok) {
        result.errors.push_back("load: changelog dequeue found the queue empty");
      }
    }
  }
  // Scan floor: index ranges populated by the load stay populated (nothing is
  // removed), so a scan must find at least the loaded ranges in its window.
  const uint64_t max_index = ShardedKv<Smr, kTraced>::IndexKey(kKeyRange) +
                             scenario.scan_length + 1;
  std::vector<uint32_t> populated_prefix(max_index + 1, 0);
  {
    std::vector<uint8_t> populated(max_index + 1, 0);
    for (uint64_t key = 1; key <= kKeyRange; ++key) {
      populated[ShardedKv<Smr, kTraced>::IndexKey(key)] |= loaded[key];
    }
    for (uint64_t i = 1; i <= max_index; ++i) {
      populated_prefix[i] = populated_prefix[i - 1] + populated[i - 1];
    }
  }
  auto scan_floor = [&](uint64_t key) {
    const uint64_t start = ShardedKv<Smr, kTraced>::IndexKey(key);
    return populated_prefix[start + scenario.scan_length] - populated_prefix[start];
  };

  wl::ZipfCdf cdf(scenario.keys.key_range, scenario.keys.zipf_theta);
  const uint32_t slices =
      opt.seconds <= 0 ? 0
                       : std::max<uint32_t>(1, static_cast<uint32_t>(
                                                   opt.seconds / kSliceSeconds + 0.5));
  std::atomic<bool> stop{slices == 0};
  std::atomic<uint32_t> slice{0};
  runtime::SpinBarrier barrier(scenario.threads + 1);
  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < scenario.threads; ++t) {
    workers.push_back(std::make_unique<Worker>());
    workers.back()->slice_ops.assign(std::max<uint32_t>(slices, 1), 0);
    if constexpr (kTraced) {
      workers.back()->timers = std::make_unique<CallTimers>();
    }
  }
  for (uint32_t t = 0; t < scenario.threads; ++t) {
    threads.emplace_back([&, t] {
      Worker& me = *workers[t];
      runtime::ThreadScope scope;
      me.tid = scope.tid();
      auto& handle = domain.AcquireHandle();
      wl::KeyStream keys(scenario.keys, &cdf, t);
      bool inject = opt.inject_wrong && t == 0;
      barrier.Wait();
      me.tx_begin = htm::StmStats();
      while (!stop.load(std::memory_order_relaxed)) {
        const OpKind kind = wl::PickOp(scenario.mix, keys);
        const uint64_t key = keys.Next();
        const uint32_t k = static_cast<uint32_t>(kind);
        me.in_op_key.store(key, std::memory_order_relaxed);
        me.in_op.store(k + 1, std::memory_order_relaxed);
        bool ok = true;
        const uint64_t begin = NowNanos();
        switch (kind) {
          case OpKind::kInsert:
            kv.Update(handle, key, keys.Dice(~0ull), me.timers.get(), &ok);
            me.updated[key] = 1;
            break;
          case OpKind::kScan:
            ok = kv.Scan(handle, key, scenario.scan_length, me.timers.get()) >=
                 scan_floor(key);
            break;
          case OpKind::kRead:
          default: {
            bool found = kv.Read(handle, key, me.timers.get());
            if (inject && loaded[key] != 0) {
              found = !found;  // self-check: a wrong answer the checker must flag
              inject = false;
            }
            ok = found || loaded[key] == 0;
            break;
          }
        }
        const uint64_t latency = NowNanos() - begin;
        me.in_op.store(0, std::memory_order_relaxed);
        ++me.ops[k];
        me.failed += ok ? 0 : 1;
        const uint32_t now_slice = slice.load(std::memory_order_relaxed);
        if (now_slice != me.open_slice) {
          me.CloseSlice();
          me.open_slice = now_slice;
        }
        if (now_slice < slices) {  // ops after the last slice boundary are not timed
          me.latency[k].Record(latency);
          ++me.slice_ops[now_slice];
        }
      }
      me.CloseSlice();
      if (opt.inject_hang && t == 0) {
        me.in_op.store(static_cast<uint32_t>(OpKind::kRead) + 1, std::memory_order_relaxed);
        for (;;) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
      me.tx_end = htm::StmStats();
      if constexpr (kTraced && kStackTrack) {
        const uint64_t flush_begin = NowNanos();
        handle.FlushFrees();
        me.flush_ns = NowNanos() - flush_begin;
      }
      me.done.store(true, std::memory_order_release);
    });
  }

  const core::Stats stats_before = domain.Snapshot();
  const std::size_t allocs_before =
      runtime::PoolAllocator::Instance().GetStats().total_allocs;
  core::StatsTimeline timeline;
  if constexpr (kTraced) {
    runtime::trace::ResetAll();
    runtime::trace::Arm(true);
    timeline.StartPeriodic(kTimelinePeriodMs);
  }
  barrier.Wait();
  result.setup_s = static_cast<double>(NowNanos() - setup_begin) * 1e-9;

  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  Clock::time_point last = start;
  const std::chrono::duration<double> slice_length(opt.seconds / std::max<uint32_t>(slices, 1));
  for (uint32_t i = 0; i < slices; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(slice_length * (i + 1)));
    const Clock::time_point now = Clock::now();
    slice.store(i + 1, std::memory_order_relaxed);
    result.slice_rates.push_back(std::chrono::duration<double>(now - last).count());
    last = now;
  }
  stop.store(true, std::memory_order_release);
  if constexpr (kTraced) {
    runtime::trace::Arm(false);
    timeline.StopPeriodic();
  }

  if (const std::vector<std::string> stuck = WaitForWorkers(workers, opt.watchdog_s);
      !stuck.empty()) {
    // The stuck threads still use the domain and the structures: report and leave
    // without joining or destroying anything.
    Report report = report_so_far;
    report.errors.insert(report.errors.end(), stuck.begin(), stuck.end());
    for (const auto& w : workers) {
      const bool in_op = w->in_op.load(std::memory_order_relaxed) != 0;
      for (uint32_t k = 0; k < wl::kOpKinds; ++k) {
        report.attempted += w->ops[k];
      }
      report.attempted += in_op ? 1 : 0;
      report.failed += w->failed + (in_op ? 1 : 0);
    }
    report.Print(workload.name, mode, scenario.keys.seed);
    std::_Exit(1);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  const std::size_t slice_count = result.slice_rates.size();
  for (std::size_t i = 0; i < slice_count; ++i) {
    uint64_t ops = 0;
    for (const auto& w : workers) {
      ops += w->slice_ops[i];
    }
    result.slice_rates[i] = static_cast<double>(ops) / result.slice_rates[i];
  }
  for (const auto& w : workers) {
    for (uint32_t k = 0; k < wl::kOpKinds; ++k) {
      result.ops[k] += w->ops[k];
      result.total_ops += w->ops[k];
      result.slice_p50[k].insert(result.slice_p50[k].end(), w->slice_p50[k].begin(),
                                 w->slice_p50[k].end());
      result.slice_p99[k].insert(result.slice_p99[k].end(), w->slice_p99[k].begin(),
                                 w->slice_p99[k].end());
      result.latency_samples[k] += w->latency_samples[k];
    }
    if constexpr (kTraced) {
      for (uint32_t c = 0; c < kCalls; ++c) {
        result.timers->calls[c].Merge(w->timers->calls[c]);
      }
    }
    result.failed += w->failed;
    result.tx_loads += w->tx_end.loads - w->tx_begin.loads;
    result.tx_stores += w->tx_end.stores - w->tx_begin.stores;
    result.tx_max_footprint = std::max(result.tx_max_footprint, w->tx_end.max_footprint);
    result.flush_ns += w->flush_ns;
  }
  result.stats = wl::StatsDelta(stats_before, domain.Snapshot());
  const runtime::PoolStats pool = runtime::PoolAllocator::Instance().GetStats();
  result.pool_allocs = pool.total_allocs - allocs_before;
  result.pool_mapped = pool.bytes_mapped;
  result.peak_rss_mb = PeakRssMb();
  if constexpr (kTraced) {
    for (const core::StatsSnapshot& s : timeline.samples()) {
      result.lag_peak = std::max(result.lag_peak, core::ReclamationLag(s));
    }
    result.timeline_samples = timeline.samples().size();
    FoldTrace(&result);
  }

  // Quiescence checks.
  std::vector<uint8_t> expected = loaded;
  for (const auto& w : workers) {
    for (uint64_t key = 1; key <= kKeyRange; ++key) {
      expected[key] |= w->updated[key];
    }
  }
  if (opt.inject_wrong) {
    expected[std::find(expected.begin() + 1, expected.end(), 1) - expected.begin()] = 0;
  }
  uint64_t expected_keys = 0;
  uint64_t mismatched = 0;
  for (uint64_t key = 1; key <= kKeyRange; ++key) {
    expected_keys += expected[key];
    const bool present = kv.Read(main_handle, key, result.timers.get());
    mismatched += present != (expected[key] != 0) ? 1 : 0;
  }
  // Every loaded range stays registered in the index.
  const uint32_t ranges = static_cast<uint32_t>(max_index - 1);
  const uint32_t found = kv.Scan(main_handle, /*key=*/0, ranges, result.timers.get());
  if (found < populated_prefix[max_index] - populated_prefix[1]) {
    result.errors.push_back("index: " + std::to_string(found) + " ranges registered, " +
                            std::to_string(populated_prefix[max_index] -
                                           populated_prefix[1]) +
                            " loaded");
  }
  if (mismatched != 0 || kv.KeysUnsafe() != expected_keys) {
    result.errors.push_back("key set: " + std::to_string(mismatched) +
                            " keys differ from loaded + updated; " +
                            std::to_string(kv.KeysUnsafe()) + " present, " +
                            std::to_string(expected_keys) + " expected");
  }
  if (kv.ChangelogUnsafe() != 0) {
    result.errors.push_back("changelog not drained: " +
                            std::to_string(kv.ChangelogUnsafe()) + " entries left");
  }
  const core::Stats totals = domain.Snapshot();
  if (totals.frees > totals.retires) {
    result.errors.push_back("frees (" + std::to_string(totals.frees) +
                            ") exceed retires (" + std::to_string(totals.retires) + ")");
  }
  return result;
}

template <typename Smr, bool kTraced>
PhaseResult Phase(const PhaseOptions& opt, Report* report, const std::string& mode) {
  PhaseResult result;
  smr::WithBenchDomain<Smr>([&](typename Smr::Domain& domain) {
    result = RunPhase<Smr, kTraced>(domain, opt, *report, mode);
  });
  for (uint32_t k = 0; k < wl::kOpKinds; ++k) {
    report->attempted += result.ops[k];
  }
  report->failed += result.failed;
  report->errors.insert(report->errors.end(), result.errors.begin(), result.errors.end());
  return result;
}

// ---- Provenance ---------------------------------------------------------------------

std::vector<std::string> StEnvironment() {
  std::vector<std::string> vars;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "ST_", 3) == 0) {
      vars.emplace_back(*env);
    }
  }
  return vars;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

constexpr bool kOptimized =
#if defined(__OPTIMIZE__)
    true;
#else
    false;
#endif

constexpr bool kTraceCompiled =
#if defined(STACKTRACK_TRACE_ENABLED)
    true;
#else
    false;
#endif

constexpr bool kRtmCompiled =
#if defined(STACKTRACK_HAVE_RTM)
    true;
#else
    false;
#endif

JsonObject Provenance(const Workload& workload, const std::string& mode,
                      const std::string& revision, double seconds) {
  cpu_set_t affinity;
  CPU_ZERO(&affinity);
  const int usable =
      sched_getaffinity(0, sizeof(affinity), &affinity) == 0 ? CPU_COUNT(&affinity) : 0;
  std::vector<std::string> st_env;
  for (const std::string& var : StEnvironment()) {
    st_env.push_back(JsonString(var));
  }
  bool hashed_scan = false;
  smr::WithBenchDomain<smr::StackTrackSmr>(
      [&](smr::StackTrackSmr::Domain& domain) { hashed_scan = domain.config().hashed_scan; });
  return JsonObject()
      .Int("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Int("cpus_usable", static_cast<uint64_t>(usable))
      .Str("cpu_model", CpuModel())
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Bool("optimized", kOptimized)
      .Str("htm_backend",
           htm::ActiveBackend() == htm::BackendKind::kRtm ? "rtm" : "soft")
      .Bool("rtm_compiled", kRtmCompiled)
      .Bool("rtm_usable", htm::RtmUsable())
      .Str("stm_engine",
           htm::ActiveStmEngine() == htm::StmEngine::kLazy ? "lazy" : "2pl")
      .Str("predictor", core::PredictorName(core::ActivePredictor()))
      .Int("predictor_warm_seeds", core::PredictorWarmTable::Instance().CountSeeds())
      .Bool("trace_compiled", kTraceCompiled)
      .Bool("trace_armed_in_window", mode == "traced")
      .Raw("st_environment", JsonArray(st_env))
      .Str("revision", revision)
      .Str("scheme", "stacktrack")
      .Str("scan", hashed_scan ? "hashed" : "per-candidate")
      .Int("threads", workload.scenario.threads)
      .Int("keys", workload.scenario.keys.key_range)
      .Num("zipf_theta", workload.scenario.keys.zipf_theta)
      .Int("load_keys", workload.scenario.prefill)
      .Int("scan_length", workload.scenario.scan_length)
      .Num("seconds", seconds)
      .Num("slice_seconds", kSliceSeconds);
}

// ---- Modes --------------------------------------------------------------------------

double PerOp(double count, uint64_t ops) { return ops == 0 ? 0 : count / ops; }
double PerKop(double count, uint64_t ops) { return 1000.0 * PerOp(count, ops); }

void Timed(const PhaseOptions& opt, Report* report) {
  const Workload& workload = *opt.workload;
  const PhaseResult run = Phase<smr::StackTrackSmr, false>(opt, report, "timed");
  // Peak RSS of the run itself: taken before the extra set-ups below.
  const double peak_rss_mb = run.peak_rss_mb;
  std::vector<double> setups{run.setup_s};
  PhaseOptions setup_only = opt;
  setup_only.seconds = 0;
  for (uint32_t i = 1; i < kSetupReps; ++i) {
    setups.push_back(Phase<smr::StackTrackSmr, false>(setup_only, report, "timed").setup_s);
  }

  const uint32_t read = static_cast<uint32_t>(OpKind::kRead);
  const uint32_t main_op = static_cast<uint32_t>(workload.main_op);
  report->Metric("throughput_ops_s", run.Throughput(), "1/s", run.slice_rates.size());
  std::vector<std::string> slices;
  for (const double rate : run.slice_rates) {
    slices.push_back(JsonNumber(rate));
  }
  report->provenance.Raw("throughput_slices", JsonArray(slices));
  report->Metric("read_p50_us", Median(run.slice_p50[read]) / 1e3, "us",
                 run.latency_samples[read]);
  report->Metric("read_p99_us", Median(run.slice_p99[read]) / 1e3, "us",
                 run.latency_samples[read]);
  report->Metric("main_op_p50_us", Median(run.slice_p50[main_op]) / 1e3, "us",
                 run.latency_samples[main_op]);
  report->Metric("main_op_p99_us", Median(run.slice_p99[main_op]) / 1e3, "us",
                 run.latency_samples[main_op]);
  report->Metric("peak_rss_mb", peak_rss_mb, "MB", 1);
  report->Metric("setup_s", Median(setups), "s", setups.size());
  // The main op under its own kind name, for readers of the full document.
  const char* kind = workload.main_op == OpKind::kInsert ? "update"
                     : workload.main_op == OpKind::kScan ? "scan"
                                                         : nullptr;
  if (kind != nullptr) {
    report->Metric(std::string(kind) + "_p50_us", Median(run.slice_p50[main_op]) / 1e3, "us",
                   run.latency_samples[main_op]);
    report->Metric(std::string(kind) + "_p99_us", Median(run.slice_p99[main_op]) / 1e3, "us",
                   run.latency_samples[main_op]);
  }
}

void Traced(const PhaseOptions& opt, Report* report) {
  const PhaseResult t = Phase<smr::StackTrackSmr, true>(opt, report, "traced");
  const PhaseResult plain = Phase<smr::StackTrackSmr, false>(opt, report, "traced");
  PhaseOptions original_opt = opt;
  original_opt.seconds = std::min<double>(opt.seconds, kOriginalMaxSeconds);
  const PhaseResult original = Phase<smr::LeakySmr, false>(original_opt, report, "traced");

  const uint64_t ops = t.total_ops;
  const core::Stats& s = t.stats;
  const uint64_t structure_ops = s.ops;
  for (uint32_t c = 0; c < kCalls; ++c) {
    const Histogram& h = t.timers->calls[c];
    report->Metric(kCallMetric[c], h.Percentile(50), "ns", h.count());
  }
  report->Metric("ds.calls_per_op", PerOp(static_cast<double>(structure_ops), ops), "count", ops);
  report->Metric("ds.original_ops_s", original.Throughput(), "1/s",
                 original.slice_rates.size());

  const uint64_t segments = s.segments_committed + s.segments_slow;
  report->Metric("core.segments_per_op", PerOp(segments, structure_ops), "count",
                 structure_ops);
  report->Metric("core.steps_per_segment", PerOp(s.steps_committed, s.segments_committed),
                 "count", s.segments_committed);
  report->Metric("core.predictor_moves_per_kop",
                 PerKop(s.predictor_increases + s.predictor_decreases, ops), "count", ops);
  report->Metric("core.commit_ratio",
                 PerOp(s.segments_committed, s.segments_committed + s.TotalAborts()), "ratio",
                 s.segments_committed + s.TotalAborts());
  report->Metric("core.aborts_conflict_per_kop", PerKop(s.aborts_conflict, ops), "count", ops);
  report->Metric("core.aborts_capacity_per_kop", PerKop(s.aborts_capacity, ops), "count", ops);
  report->Metric("core.slow_segments_per_kop", PerKop(s.segments_slow, ops), "count", ops);
  report->Metric("core.abort_time_share", t.abort_time_share, "ratio", t.trace_records);

  report->Metric("htm.tx_loads_per_op", PerOp(t.tx_loads, ops), "count", ops);
  report->Metric("htm.tx_stores_per_op", PerOp(t.tx_stores, ops), "count", ops);
  report->Metric("htm.max_footprint", t.tx_max_footprint, "count", kThreads);
  report->Metric("htm.orec_waits_per_kop", PerKop(s.stm_orec_waits, ops), "count", ops);
  report->Metric("htm.commit_conflict_aborts_per_kop",
                 PerKop(s.stm_commit_conflict_aborts, ops), "count", ops);

  report->Metric("reclaim.retires_per_op", PerOp(s.retires, ops), "count", ops);
  report->Metric("reclaim.frees_per_retire", PerOp(s.frees, s.retires), "ratio", s.retires);
  report->Metric("reclaim.scans_per_kop", PerKop(s.scan_calls, ops), "count", ops);
  report->Metric("reclaim.scan_words_per_scan", PerOp(s.scan_words, s.scan_calls), "count",
                 s.scan_calls);
  report->Metric("reclaim.inspects_per_scan", PerOp(s.scan_thread_inspects, s.scan_calls),
                 "count", s.scan_calls);
  report->Metric("reclaim.scan_restarts_per_scan", PerOp(s.scan_restarts, s.scan_calls),
                 "count", s.scan_calls);
  report->Metric("reclaim.snapshot_reuse_ratio",
                 PerOp(s.snapshot_reuses, s.snapshot_reuses + s.snapshot_publishes), "ratio",
                 s.snapshot_reuses + s.snapshot_publishes);
  report->Metric("reclaim.lag_peak_nodes", t.lag_peak, "count", t.timeline_samples);
  report->Metric("reclaim.flush_ms", t.flush_ns / 1e6, "ms", kThreads);
  report->Metric("reclaim.scan_time_share", t.scan_time_share, "ratio", t.trace_records);

  report->Metric("pool.allocs_per_op", PerOp(t.pool_allocs, ops), "count", ops);
  report->Metric("pool.mapped_mb", t.pool_mapped / (1024.0 * 1024.0), "MB", 1);
  const double untraced = plain.Throughput();
  report->Metric("trace.overhead_pct",
                 untraced == 0 ? 0 : 100.0 * (untraced - t.Throughput()) / untraced, "%",
                 t.slice_rates.size() + plain.slice_rates.size());
  report->Metric("trace.dropped", t.trace_dropped, "count", t.trace_records);
  report->Metric("trace.traced_ops_s", t.Throughput(), "1/s", t.slice_rates.size());
  report->Metric("trace.untraced_ops_s", untraced, "1/s", plain.slice_rates.size());
}

int Usage() {
  std::fprintf(stderr,
               "usage: kvbench --workload=kv-update|kv-read|kv-scan [--seed=N] "
               "[--seconds=S] [--mode=timed|traced] "
               "[--watchdog-s=S] [--revision=STR] [--inject-wrong-answer] [--inject-hang]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::string mode = "timed";
  std::string revision = "unknown";
  uint64_t seed = 1;
  double seconds = 20;
  PhaseOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    const char* v = nullptr;
    if ((v = value("--workload=")) != nullptr) {
      workload_name = v;
    } else if ((v = value("--seed=")) != nullptr) {
      seed = std::strtoull(v, nullptr, 0);
    } else if ((v = value("--seconds=")) != nullptr) {
      seconds = std::atof(v);
    } else if ((v = value("--mode=")) != nullptr) {
      mode = v;
    } else if ((v = value("--watchdog-s=")) != nullptr) {
      opt.watchdog_s = std::atof(v);
    } else if ((v = value("--revision=")) != nullptr) {
      revision = v;
    } else if (arg == "--inject-wrong-answer") {
      opt.inject_wrong = true;
    } else if (arg == "--inject-hang") {
      opt.inject_hang = true;
    } else {
      std::fprintf(stderr, "kvbench: unknown argument %s\n", arg.c_str());
      return Usage();
    }
  }
  const std::optional<Workload> workload = FindWorkload(workload_name, seed);
  if (!workload || (mode != "timed" && mode != "traced") || seconds <= 0) {
    return Usage();
  }
  // Refuse to time a program other than the repository default.
  if (!kOptimized || std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0) {
    std::fprintf(stderr, "kvbench: refusing to time an unoptimized (%s) build\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  if (runtime::trace::Armed()) {
    std::fprintf(stderr, "kvbench: refusing to time with the trace plane armed\n");
    return 3;
  }
  if (!StEnvironment().empty()) {
    std::fprintf(stderr,
                 "kvbench: refusing to run with ST_* variables set (%s ...); they change "
                 "the program under test\n",
                 StEnvironment().front().c_str());
    return 3;
  }

  opt.workload = &*workload;
  opt.seconds = seconds;
  Report report;
  report.provenance = Provenance(*workload, mode, revision, seconds);
  if (mode == "traced") {
    Traced(opt, &report);
  } else {
    Timed(opt, &report);
  }
  return report.Print(workload->name, mode, seed);
}

}  // namespace
}  // namespace stacktrack::perfbench

int main(int argc, char** argv) { return stacktrack::perfbench::Main(argc, argv); }
