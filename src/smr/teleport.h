// Teleportation reclamation (Cohen & Herlihy, "The Teleportation Design Pattern
// for Hardware Transactional Memory", 2018) over the repo's HTM layer: a hazard-
// pointer baseline whose Handle opportunistically batches guard updates inside
// best-effort transactional segments.
//
// The idea: Michael's protocol pays a seq_cst fence plus a revalidating re-load on
// every protected hop. Inside a transaction neither is needed per hop — the source
// reads sit in the transaction's read set (soft engines: read log; RTM: monitored
// lines), so one commit validates the whole traversal wholesale. Protect() inside a
// batch is therefore a transactional load plus one plain release store into the
// guard row, and only the final capture of the batch survives commit. On abort
// (capacity/conflict/spurious, via the existing abort-cause plumbing) the handle
// restores its tracked roots and falls back to plain fenced hazard stores, so
// safety is always the Michael-2004 protocol (DESIGN.md §5f has the full argument).
//
// Guard publication is EAGER (plain release stores, visible to the scanner
// immediately) even inside a batch — transactionally-buffered guard stores would
// publish only after the lazy engine's commit validation, inverting the
// publish-then-validate order the hazard proof needs. Eager publication in turn
// needs two guard sets per thread (GuardTable kSets=2): the active set holds the
// last committed capture; a batch seeds the inactive set from it and publishes
// there, so an abort leaves the active set — which covers the restored roots —
// untouched. Commit toggles the active set. The scanner sweeps both sets, so at
// every instant the union covers both the committed and the speculative roots.
//
// Segment protocol: kSplits = true — the scheme rides the same SMR_OP_BEGIN /
// SMR_CHECKPOINT / SMR_OP_END macro expansion as StackTrack (the transaction begin
// point must live in the operation's own stack frame; see core/split_engine.h).
// OpScope runs teleport entirely on the fenced path (ForceSlowSegments), which is
// plain hazard pointers.
#ifndef STACKTRACK_SMR_TELEPORT_H_
#define STACKTRACK_SMR_TELEPORT_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/stats.h"
#include "core/thread_context.h"
#include "htm/htm.h"
#include "runtime/thread_registry.h"
#include "runtime/trace.h"
#include "smr/guard_table.h"
#include "smr/smr.h"

namespace stacktrack::smr {

struct TeleportSmr {
  static constexpr bool kSplits = true;
  static constexpr uint32_t kSlotsPerThread = 40;  // same budget as HazardSmr
  static constexpr uint32_t kGuardSets = 2;        // committed capture + open batch
  // Basic blocks per attempted guard batch. Long batches amortize the per-segment
  // cost (snapshot, begin point, commit validation); the read-log line dedup keeps a
  // 256-block traversal segment around ~70 read-set lines, inside the machine model's
  // capacity budget even in its degraded regimes. Aborts shorten the effective length
  // anyway via Config::fallback_after.
  static constexpr uint32_t kBatchLimit = 256;

  struct Config {
    uint32_t scan_threshold = 64;  // retired nodes buffered per thread before a scan
    uint32_t fallback_after = 2;   // consecutive aborts before a fenced segment
    bool batching = true;          // false => every segment runs plain fenced hazard
  };

  class Domain;

  class Handle {
   public:
    static constexpr bool kSplits = true;

    // ---- Operation life cycle (driven by the SMR macros / OpScope) ----
    void OpBegin(uint32_t op_id);
    void OpEnd();

    // ---- Split-engine hooks (core/split_engine.h contract) ----
    bool PrepareSegment();
    void SegmentStarted();
    void SegmentAborted(int cause);
    void SlowSegmentStarted();
    // Hot: called at every basic-block boundary. A countdown keeps it to one
    // decrement + zero test; Steps() recovers the block count for trace args.
    bool CheckpointHit() { return --steps_left_ == 0; }
    void CommitSegment();
    void ForceSlowSegments() { op_forced_slow_ = true; }

    // ---- Instrumented shared-memory access ----
    // Batch mode goes through the transactional engine so every read is validated
    // at commit. The fenced path must keep its STORES on the Safe* interop forms —
    // a plain store would not bump stripe versions, and a peer's in-flight batch
    // that read the location would then validate successfully against a changed
    // value. Its LOADS, however, can be plain acquire loads (exactly hazard's)
    // whenever the active engine never exposes uncommitted data: a load cannot
    // invalidate anyone's read set, word loads are untearable, and both RTM and the
    // lazy engine write memory only during commit publication, after validation has
    // already succeeded. Only the eager-2PL engine writes speculative values in
    // place, so only it needs the orec-checked SafeLoad (plain_loads_, per op).
    template <typename T>
    T Load(const std::atomic<T>& src) {
      if (in_batch_) {
        return htm::TxLoad(src);
      }
      if (plain_loads_) {
        return src.load(std::memory_order_acquire);
      }
      return htm::SafeLoad(src);
    }
    template <typename T>
    void Store(std::atomic<T>& dst, T value) {
      if (in_batch_) {
        htm::TxStore(dst, value);
        return;
      }
      htm::SafeStore(dst, value);
    }
    template <typename T>
    bool Cas(std::atomic<T>& dst, T expected, T desired) {
      if (in_batch_) {
        if (htm::TxLoad(dst) != expected) {
          return false;
        }
        htm::TxStore(dst, desired);
        return true;
      }
      return htm::SafeCas(dst, expected, desired);
    }

    // The teleported hop. Batch mode: transactional load (recorded for commit
    // validation) + eager fence-free publish into the batch set — the per-hop fence
    // and revalidate are what the transaction elides. Fenced mode: the classic
    // publish-validate loop on the active set (GuardSlot::ProtectLoad).
    template <typename T>
    T Protect(const std::atomic<T>& src, uint32_t slot) {
      static_assert(sizeof(T) == 8);
      if (in_batch_) {
        NoteSlot(slot);
        const T value = htm::TxLoad(src);
        BatchSlot(slot).Publish(value);
        ++elided_pending_;
        return value;
      }
      if (plain_loads_) {
        return ActiveSlot(slot).ProtectLoad(src, [](const std::atomic<T>& s) {
          return s.load(std::memory_order_acquire);
        });
      }
      return ActiveSlot(slot).ProtectLoad(
          src, [](const std::atomic<T>& s) { return htm::SafeLoad(s); });
    }

    // Hand-over-hand advance of an already covered value; fence-free in both modes.
    template <typename T>
    void ProtectRaw(uint32_t slot, T value) {
      if (in_batch_) {
        NoteSlot(slot);
        BatchSlot(slot).Publish(value);
        return;
      }
      ActiveSlot(slot).Publish(value);
    }

    void Retire(void* ptr, uint64_t key = 0);
    void AnchorHop(uint64_t) {}

    template <typename T>
    core::RootRef<T> reg(uint32_t slot) {
      return core::RootRef<T>(&regs_[slot]);
    }

    // Tracked-frame registration (Frame<N> below): batch aborts longjmp back to the
    // arm point, so every root live across a checkpoint must be restorable.
    void RegisterFrame(uintptr_t* base, uint32_t words);
    void DeregisterFrame(uintptr_t* base);

   private:
    friend class Domain;

    // Inline (hot: two publications per traversal hop). row_ caches the thread's
    // guard row so slot access is pure index math off the handle.
    GuardSlot ActiveSlot(uint32_t slot) {
      return GuardSlot(row_[active_set_ * kSlotsPerThread + CheckSlot(slot)]);
    }
    GuardSlot BatchSlot(uint32_t slot) {
      return GuardSlot(row_[(active_set_ ^ 1) * kSlotsPerThread + CheckSlot(slot)]);
    }
    // Overflow discipline for cached-row access (same contract as GuardTable::Word:
    // debug asserts, release clamps to slot 0 and records the break loudly).
    uint32_t CheckSlot(uint32_t slot) {
      assert(slot < kSlotsPerThread && "guard slot index out of range");
      if (slot >= kSlotsPerThread) [[unlikely]] {
        NoteSlotOverflow(slot);
        return 0;
      }
      return slot;
    }
    void NoteSlotOverflow(uint32_t slot);  // out-of-line cold path
    // Slot high-water mark for the current operation: PrepareSegment seeds only
    // this many batch slots (everything above is zero in both sets since the last
    // ClearRow, so copying it would be pure overhead). Tracked in batch mode only:
    // a fenced segment runs to the end of the operation, so its publications are
    // never followed by a CopySet within the same op.
    void NoteSlot(uint32_t slot) {
      const uint32_t used = (slot < kSlotsPerThread ? slot : 0) + 1;
      if (used > used_slots_) {
        used_slots_ = used;
      }
    }
    void SaveRootSnapshot();
    void RestoreRootSnapshot();
    void FinishBatch();        // fence (soft) + TxCommit + set toggle + bookkeeping
    void SpliceRetires();      // tx_retire_ -> retired_, then threshold scan
    void MaybeScan();

    // Per-handle counters, summed racily by Domain::Snapshot (each handle is owned
    // by one thread; reporting reads tolerate torn sums like every other scheme).
    struct Counters {
      uint64_t batches = 0;          // committed guard batches
      uint64_t elisions = 0;         // per-hop fences elided by committed batches
      uint64_t fallbacks = 0;        // fenced segments entered after aborts
      uint64_t slow_segments = 0;    // fenced segments, any reason
      uint64_t aborts_conflict = 0;
      uint64_t aborts_capacity = 0;
      uint64_t aborts_explicit = 0;
      uint64_t aborts_other = 0;
      uint64_t aborts_conflict_reader = 0;
      uint64_t aborts_conflict_writer = 0;
    };

    Domain* domain_ = nullptr;
    uint32_t tid_ = 0;
    // Cached base of this thread's guard row (both sets); every Protect/ProtectRaw
    // publication indexes it directly instead of re-chasing domain_->guards_.
    std::atomic<uintptr_t>* row_ = nullptr;

    bool in_batch_ = false;        // inside an open transactional guard batch
    bool slow_segment_ = false;    // inside a fenced (plain-hazard) segment
    bool op_forced_slow_ = false;  // OpScope entry: no begin point available
    bool plain_loads_ = true;      // fenced loads may skip Safe* (see Load above)
    uint32_t active_set_ = 0;      // guard set holding the last committed capture
    uint32_t steps_left_ = 0;      // checkpoint budget remaining in this segment
    uint32_t limit_ = 0;           // budget this segment started with
    uint32_t Steps() const { return limit_ - steps_left_; }
    uint32_t attempt_fails_ = 0;   // consecutive aborts of the current segment
    uint32_t used_slots_ = 0;      // per-op slot high-water mark (see NoteSlot)
    uint64_t elided_pending_ = 0;  // elisions in the open batch (counted on commit)

    uintptr_t regs_[core::kRegisterSlots] = {};
    uintptr_t reg_snapshot_[core::kRegisterSlots] = {};
    uintptr_t* frame_bases_[core::kMaxFrames] = {};
    uint32_t frame_words_[core::kMaxFrames] = {};
    uint32_t frame_count_ = 0;
    uintptr_t frame_snapshot_[core::kMaxFrames][core::kMaxFrameWords] = {};

    Counters counters_;
    std::vector<void*> retired_;    // final retires awaiting a scan
    std::vector<void*> tx_retire_;  // retires inside the open batch; abort discards
  };

  // Tracked root frame: same shape as core::TrackedFrame, registered with the
  // handle so batch aborts can restore every root word.
  template <uint32_t N>
  struct Frame {
    static_assert(N <= core::kMaxFrameWords);

    explicit Frame(Handle& handle) : handle_(handle) {
      handle_.RegisterFrame(words, N);
    }
    ~Frame() { handle_.DeregisterFrame(words); }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

    uintptr_t words[N] = {};

    template <typename T>
    core::RootRef<T> ptr(uint32_t index) {
      return core::RootRef<T>(&words[index]);
    }

   private:
    Handle& handle_;
  };

  class Domain {
   public:
    explicit Domain(const Config& config) : config_(config) {}
    // Positional form kept for scheme-generic callers. Batching honors
    // ST_TELEPORT_BATCH here (0 disables — the CI gate measures the pure fallback
    // path this way); an explicit Config is taken as-is.
    explicit Domain(uint32_t scan_threshold = 64)
        : Domain(DefaultConfig(scan_threshold)) {}
    ~Domain();

    Handle& AcquireHandle();

    uint64_t total_freed() const {
      return total_freed_.load(std::memory_order_relaxed);
    }

    const Config& config() const { return config_; }
    core::Stats Snapshot() const;
    std::vector<runtime::trace::MergedRecord> Trace() const {
      return runtime::trace::CollectMerged();
    }

   private:
    friend class Handle;

    static Config DefaultConfig(uint32_t scan_threshold);

    // Frees every node in `retired` not covered by a guard in either set. Unlike
    // the hazard scanner this must doom in-flight batches that read a node before
    // freeing it: QuarantineRange invalidates the node's stripes/orecs so any open
    // transaction holding it in its read set fails commit validation.
    void Scan(std::vector<void*>& retired);

    const Config config_;
    GuardTable<kSlotsPerThread, kGuardSets> guards_;
    Handle handles_[runtime::kMaxThreads];
    std::atomic<uint64_t> total_retired_{0};
    std::atomic<uint64_t> total_freed_{0};
    std::atomic<uint64_t> total_scans_{0};
  };
};

}  // namespace stacktrack::smr

#endif  // STACKTRACK_SMR_TELEPORT_H_
