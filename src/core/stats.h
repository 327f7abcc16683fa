// Per-thread event counters and a global aggregator.
//
// Every figure in the paper's evaluation beyond raw throughput (Figs. 3-5: abort
// taxonomy, splits per operation, split lengths, scan behaviour) is derived from these
// counters. Each StContext owns a Stats block; the registry sums live blocks, and
// workload::RunScenario reports the StatsDelta over its measured window.
#ifndef STACKTRACK_CORE_STATS_H_
#define STACKTRACK_CORE_STATS_H_

#include <cstdint>

namespace stacktrack::core {

struct Stats {
  // Operation / segment life cycle.
  uint64_t ops = 0;
  uint64_t segments_committed = 0;   // fast-path segment commits
  uint64_t segments_slow = 0;        // segments executed on the software slow path
  uint64_t steps_committed = 0;      // basic blocks inside committed segments
  // Abort taxonomy (counted per failed fast-path attempt). aborts_conflict covers
  // every conflict-family cause; the reader/writer splits below refine it when the
  // 2PL engine attributes the conflicting party (lazy validation cannot, so they
  // stay 0 under ST_STM=lazy).
  uint64_t aborts_conflict = 0;
  uint64_t aborts_capacity = 0;
  uint64_t aborts_explicit = 0;
  uint64_t aborts_other = 0;
  uint64_t aborts_conflict_reader = 0;  // writer yielded the orec to an older reader
  uint64_t aborts_conflict_writer = 0;  // blocked by / doomed in favor of an older writer
  // Software-engine internals, drained from htm::ConsumeStmCounters() at segment
  // boundaries. Waits count spins against a held stripe/orec; handoffs count 2PL
  // priority-token resolutions (a younger holder doomed in the winner's favor);
  // the eager/commit split locates where conflict aborts were raised.
  uint64_t stm_orec_waits = 0;
  uint64_t stm_priority_handoffs = 0;
  uint64_t stm_eager_conflict_aborts = 0;
  uint64_t stm_commit_conflict_aborts = 0;
  // Split-length predictor activity (see core/predictor.h).
  uint64_t predictor_increases = 0;
  uint64_t predictor_decreases = 0;
  uint64_t predictor_warm_seeds = 0;  // cells seeded from the loaded warm table
  // Reclamation.
  uint64_t retires = 0;
  uint64_t frees = 0;
  uint64_t scan_calls = 0;           // scan_and_free invocations
  uint64_t scan_thread_inspects = 0; // per-thread inspections performed
  uint64_t scan_restarts = 0;        // splits-counter inconsistency retries
  uint64_t scan_words = 0;           // stack/register words compared
  uint64_t scan_hits = 0;            // candidates kept alive by a found reference
  uint64_t stale_free_drops = 0;     // free-set entries already freed elsewhere (guard)
  // Slow path.
  uint64_t slow_reads = 0;
  uint64_t slow_read_retries = 0;
  uint64_t slow_ops = 0;             // operations forced entirely onto the slow path
  // Robustness: bounded-retry, back-pressure, and fault-recovery actions. Counters
  // for the injected faults themselves live in runtime/fault.h (per-site fire
  // counts); these record how the reclamation layers recovered.
  uint64_t scan_retry_capped = 0;    // inspections that hit the retry cap -> "live"
  uint64_t backpressure_raises = 0;  // adaptive scan-threshold increases
  uint64_t backpressure_spills = 0;  // survivors spilled to the global deferred list
  uint64_t deferred_adopted = 0;     // deferred candidates adopted by a later scan
  uint64_t exit_handoffs = 0;        // candidates handed off by an exiting thread
  uint64_t refset_overflows = 0;     // sticky RefSet overflows (conservative mode)
  uint64_t watchdog_reports = 0;     // threads newly flagged as stalled mid-operation
  uint64_t free_set_peak = 0;        // per-thread max free_set size (sums as a bound)
  // Hashed-scan root tables (core/reclaim_engine.h). Tables are private to one round,
  // so publishes/reuses stay 0; they are kept for readers such as perfbench/kvbench.
  uint64_t snapshot_publishes = 0;
  uint64_t snapshot_reuses = 0;
  uint64_t snapshot_incomplete = 0;  // rounds whose table could not prove completeness
  // Asynchronous reclamation service (core/reclaim_service.h). service_batches and
  // steals count on the reclaimer contexts; failovers on whichever reclaimer detected
  // the dead peer; inline_fallbacks on the mutator that had to scan for itself.
  uint64_t service_batches = 0;      // hand-off ring batches consumed by reclaimers
  uint64_t steals = 0;               // batches drained from another reclaimer's shard
  uint64_t failovers = 0;            // stalled/dead reclaimers failed over to a peer
  uint64_t inline_fallbacks = 0;     // mutator frees that fell back to inline scanning
  // Hazard-protocol guard activity (smr/guard_table.h consumers). The guard_batch_*
  // counters belong to the teleport scheme (HTM-elided hazard capture): batches are
  // committed guard transactions, elisions count per-hop publish fences a committed
  // batch made unnecessary, fallbacks count fenced slow segments entered after
  // aborts. guard_slot_overflows is sticky across every scheme using a GuardTable: a
  // nonzero value means some traversal indexed past its slot budget (protocol break).
  uint64_t guard_batches = 0;        // teleport guard batches committed
  uint64_t guard_elisions = 0;       // per-hop hazard fences elided by committed batches
  uint64_t guard_fallbacks = 0;      // fenced (plain-hazard) segments entered after aborts
  uint64_t guard_slot_overflows = 0; // guard-slot indexes clamped out of range (sticky)

  Stats& operator+=(const Stats& other) {
    const uint64_t* src = reinterpret_cast<const uint64_t*>(&other);
    uint64_t* dst = reinterpret_cast<uint64_t*>(this);
    for (std::size_t i = 0; i < sizeof(Stats) / sizeof(uint64_t); ++i) {
      dst[i] += src[i];
    }
    return *this;
  }

  double AvgSplitsPerOp() const {
    const uint64_t segments = segments_committed + segments_slow;
    return ops == 0 ? 0.0 : static_cast<double>(segments) / static_cast<double>(ops);
  }

  double AvgSplitLength() const {
    return segments_committed == 0
               ? 0.0
               : static_cast<double>(steps_committed) / static_cast<double>(segments_committed);
  }

  uint64_t TotalAborts() const {
    return aborts_conflict + aborts_capacity + aborts_explicit + aborts_other;
  }
};
static_assert(sizeof(Stats) % sizeof(uint64_t) == 0);

// Tracks all live per-thread Stats blocks. Threads register at context creation and
// fold their counters into a retired total at destruction, so sums never lose events.
// runtime's PoolAllocator uses the same register/fold-on-exit discipline for its
// per-thread allocation tallies (it cannot depend on this class — core sits above
// runtime in the layering).
class StatsRegistry {
 public:
  static StatsRegistry& Instance();

  void Register(Stats* stats);
  void Deregister(Stats* stats);  // folds *stats into the retired total

  // Sum over retired totals plus all live blocks (racy snapshot, fine for reporting).
  Stats Sum() const;

 private:
  StatsRegistry() = default;
};

}  // namespace stacktrack::core

#endif  // STACKTRACK_CORE_STATS_H_
