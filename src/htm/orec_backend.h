// Eager two-phase-locking software HTM over distributed reader-writer orecs
// (`ST_STM=2pl`) — the 2PLSF-style alternative to the lazy-validation engine in
// soft_backend.h.
//
// Where the lazy engine logs versions and revalidates the whole read set at commit
// (paying for every conflict with a full re-execution), this engine locks as it goes:
//
//  * A global table of 2^14 ownership records (orecs), one per hashed 64-byte line,
//    mirrors HTM's cache-line conflict granularity just like the lazy stripes.
//  * Reads take a *distributed* read lock: thread t sets its own byte in
//    g_read_slots[t][orec]. Each thread writes only its own 16 KiB row, so read
//    acquisition never bounces a shared line between readers — the property that
//    makes read-mostly segments commit with no revalidation at all. A re-read of an
//    already-held orec is one relaxed load of our own byte.
//  * Writes acquire the orec's writer word exclusively (CAS), wait for the read
//    slots of other threads to drain, then store *in place* with an undo log.
//    Read-own-writes is therefore free, and commit is nothing but lock release.
//  * Conflicts resolve by priority: every transaction carries a token drawn from a
//    monotonically increasing global clock, *retained across conflict retries*, so a
//    transaction that keeps losing becomes the oldest in the system and eventually
//    wins every duel — starvation freedom, modulo the bounded spin a winner grants a
//    doomed victim to get off the lock. Younger parties are doomed via a per-thread
//    flag and abort at their next cold path or commit.
//  * Capacity and spurious aborts reproduce the lazy engine's MachineModel behaviour
//    exactly: every TxLoadWord/TxStoreWord bumps an access counter checked against
//    CapacityLinesNow(), and SpuriousAbortProbNow() injects kOther aborts per access.
//
// Zombie window: a doomed reader keeps running until its next cold path or commit and
// — unlike under lazy validation — may observe another transaction's *uncommitted*
// in-place writes. The Dekker protocol below guarantees the writer doomed it before
// the first dirty store became readable, so such observations never commit; bounded
// zombie execution is then safe for the same reasons as the lazy engine's (split
// checkpoints bound the run, pool memory is type-stable, poison routes to retry
// paths — see soft_backend.h).
//
// Aborts transfer control to the begin point with longjmp, identical to the lazy
// engine; the split engine's contract (core/split_engine.h) holds unchanged.
#ifndef STACKTRACK_HTM_OREC_BACKEND_H_
#define STACKTRACK_HTM_OREC_BACKEND_H_

#include <atomic>
#include <csetjmp>
#include <cstddef>
#include <cstdint>

#include "htm/stm_stats.h"
#include "runtime/cacheline.h"
#include "runtime/rand.h"
#include "runtime/thread_registry.h"

namespace stacktrack::htm::orec {

inline constexpr std::size_t kOrecCountLog2 = 14;  // 16384 orecs; 128 KiB writer table
inline constexpr std::size_t kOrecCount = std::size_t{1} << kOrecCountLog2;

// Fixed-capacity per-transaction sets. Overflow is a genuine capacity abort.
inline constexpr std::size_t kReadSetEntries = 4096;   // distinct read-locked orecs
inline constexpr std::size_t kWriteSetEntries = 256;   // distinct write-locked orecs
inline constexpr std::size_t kUndoLogEntries = 1024;   // one entry per TxStoreWord

// Writer word encoding. Unlocked: (release_seq << 1) — the sequence number advances
// on *every* release (commit, abort, interop), giving SafeLoadWord a seqlock that
// detects a full acquire/release cycle between its two reads. Locked:
// (((token << 7) | (owner_tid + 1)) << 1) | 1. tid+1 occupies 7 bits; field value
// kInteropOwnerField marks a non-transactional interop/quarantine holder.
inline constexpr uint64_t kLockedBit = 1;
inline constexpr uint64_t kOwnerFieldBits = 7;
inline constexpr uint64_t kOwnerFieldMask = (uint64_t{1} << kOwnerFieldBits) - 1;
inline constexpr uint64_t kInteropOwnerField = kOwnerFieldMask;  // 127
// Interop operations duel as the oldest possible writer: the token clock starts at 2,
// so token 1 outranks every transaction ever started.
inline constexpr uint64_t kInteropToken = 1;
static_assert(runtime::kMaxThreads + 1 < kInteropOwnerField,
              "owner tid+1 must fit the 7-bit owner field below the interop marker");

inline constexpr bool WordLocked(uint64_t w) { return (w & kLockedBit) != 0; }
inline constexpr uint64_t OwnerFieldOf(uint64_t w) { return (w >> 1) & kOwnerFieldMask; }
inline constexpr uint64_t OwnerTokenOf(uint64_t w) { return w >> (1 + kOwnerFieldBits); }
inline constexpr uint64_t LockWord(uint64_t owner_field, uint64_t token) {
  return (((token << kOwnerFieldBits) | owner_field) << 1) | kLockedBit;
}
// Release: bump the sequence of the pre-lock (unlocked) word.
inline constexpr uint64_t ReleasedWord(uint64_t prelock) { return prelock + 2; }

struct UndoEntry {
  std::atomic<uint64_t>* addr;
  uint64_t value;  // pre-store value, restored in reverse order on abort
};

// All-zero at thread start (see tls_tx): BeginPoint sets tid and seeds rng.
struct TxDesc {
  std::jmp_buf env = {};  // armed by the begin-point macro
  bool active = false;
  uint32_t tid = 0;  // owner of read slots; valid only while active
  uint32_t capacity_limit = 0;   // access budget for this attempt
  uint32_t fast_access_limit = 0;  // == capacity_limit, or 0 when spurious injection
                                   // is on so every access takes the checked path
  uint32_t access_count = 0;     // every TxLoadWord/TxStoreWord, including re-touches
  double spurious_prob = 0.0;
  bool spurious_enabled = false;
  uint64_t token = 0;  // priority; kept across conflict retries (aging), else fresh
  uint32_t read_count = 0;
  uint32_t write_count = 0;
  uint32_t undo_count = 0;
  uint32_t read_orecs[kReadSetEntries] = {};    // orecs whose read slot we hold
  uint32_t write_orecs[kWriteSetEntries] = {};  // orecs whose writer word we hold
  uint64_t write_prelock[kWriteSetEntries] = {};  // their pre-lock words, for release
  UndoEntry undo_log[kUndoLogEntries] = {};
  // Spurious-abort draws; seeded by the thread's first BeginPoint.
  runtime::Xorshift128 rng{runtime::Xorshift128::kUnseeded};
  TxStats stats;
};

// constinit and all-zero for the same reasons as the lazy engine's soft::tls_tx.
constinit inline thread_local TxDesc tls_tx;
inline TxDesc& CurrentTx() { return tls_tx; }

// Writer words, one per orec. Contiguous like the lazy stripe table: stays
// cache-resident; adjacent-orec false sharing is rare and HTM-like.
alignas(runtime::kCacheLineSize) inline std::atomic<uint64_t> g_writer[kOrecCount];

// Distributed read locks: row t is written only by thread t (one byte per orec), so
// publishing a read lock dirties no line any other reader touches. Writers scan
// column [0, high_watermark) of their orec when acquiring.
alignas(runtime::kCacheLineSize) inline std::atomic<uint8_t>
    g_read_slots[runtime::kMaxThreads][kOrecCount];

// Published priority token per thread (0 = no transaction), and the doom flag: a
// higher-priority conflicter stores the *victim's own token* here, so a stale doom
// aimed at a finished attempt can never kill the next one by accident.
struct alignas(runtime::kCacheLineSize) PerThreadWord {
  std::atomic<uint64_t> value{0};
};
inline PerThreadWord g_tokens[runtime::kMaxThreads];
inline PerThreadWord g_doomed[runtime::kMaxThreads];

// Monotone priority clock. Starts at 2: token 1 is reserved for interop ops.
inline std::atomic<uint64_t> g_token_clock{2};

// Same line hash as the lazy engine, narrowed to the orec table.
inline uint32_t OrecIndexOf(uintptr_t addr) {
  const uint64_t line = addr >> 6;
  return static_cast<uint32_t>((line * 0x9e3779b97f4a7c15ULL) >> (64 - kOrecCountLog2));
}

inline bool Doomed(const TxDesc& tx) {
  return g_doomed[tx.tid].value.load(std::memory_order_relaxed) == tx.token;
}

// Begin-point helper; same contract as soft::BeginPoint.
int BeginPoint(int jmp_rc);

// Commit = release every lock (writes are already in place). Aborts (longjmp) only
// if a higher-priority conflicter doomed this transaction.
void Commit();

[[noreturn]] void Abort(int cause);

// Cold paths of the inline access functions.
[[noreturn]] void AbortCapacity();
void SlowAccessChecks(TxDesc& tx);  // capacity + spurious; aborts or returns
void ReadLockContended(TxDesc& tx, uint32_t orec);  // writer word held by another
void WriteLockAcquire(TxDesc& tx, uint32_t orec);   // full acquisition protocol

// First touch of `orec` by this transaction: publish our read slot and resolve any
// writer conflict. Returns with the slot held and the read logged.
inline void AcquireReadLock(TxDesc& tx, uint32_t orec) {
  if (tx.read_count >= kReadSetEntries) [[unlikely]] {
    AbortCapacity();  // before the slot is set: nothing to roll back
  }
  std::atomic<uint8_t>& slot = g_read_slots[tx.tid][orec];
  // Dekker publish: the RMW makes the slot store globally visible before the writer
  // word load below — a plain store could be reordered after it. Either we see a
  // holder's lock, or its reader drain sees our slot; never neither.
  slot.exchange(1, std::memory_order_seq_cst);
  const uint64_t w = g_writer[orec].load(std::memory_order_seq_cst);
  if (WordLocked(w) && OwnerFieldOf(w) != tx.tid + 1) [[unlikely]] {
    ReadLockContended(tx, orec);  // duel; returns with slot held or aborts
  }
  tx.read_orecs[tx.read_count] = orec;
  tx.read_count += 1;
}

inline uint64_t TxLoadWord(const std::atomic<uint64_t>* addr) {
  TxDesc& tx = tls_tx;
  ++tx.stats.loads;
  const uint32_t acc = tx.access_count + 1;
  tx.access_count = acc;
  if (acc > tx.fast_access_limit) [[unlikely]] {
    SlowAccessChecks(tx);
  }
  const uint32_t orec = OrecIndexOf(reinterpret_cast<uintptr_t>(addr));
  if (g_read_slots[tx.tid][orec].load(std::memory_order_relaxed) == 0) {
    AcquireReadLock(tx, orec);
  }
  // Held (2PL): no version to record, no commit-time validation, and in-place writes
  // make this read-own-writes for free.
  return addr->load(std::memory_order_acquire);
}

inline void TxStoreWord(std::atomic<uint64_t>* addr, uint64_t value) {
  TxDesc& tx = tls_tx;
  ++tx.stats.stores;
  const uint32_t acc = tx.access_count + 1;
  tx.access_count = acc;
  if (acc > tx.fast_access_limit) [[unlikely]] {
    SlowAccessChecks(tx);
  }
  const uint32_t orec = OrecIndexOf(reinterpret_cast<uintptr_t>(addr));
  const uint64_t w = g_writer[orec].load(std::memory_order_acquire);
  if (!WordLocked(w) || OwnerFieldOf(w) != tx.tid + 1) {
    WriteLockAcquire(tx, orec);  // drains readers, duels writers; may abort
  }
  if (tx.undo_count >= kUndoLogEntries) [[unlikely]] {
    AbortCapacity();
  }
  UndoEntry& undo = tx.undo_log[tx.undo_count];
  undo.addr = addr;
  undo.value = addr->load(std::memory_order_relaxed);
  tx.undo_count += 1;
  addr->store(value, std::memory_order_release);
}

// Non-transactional interop: acquires the writer word as an interop owner (token 1,
// outranking every transaction), dooms conflicting readers, and releases with a
// sequence bump. SafeLoadWord is a seqlock over the writer word.
uint64_t SafeLoadWord(const std::atomic<uint64_t>* addr);
void SafeStoreWord(std::atomic<uint64_t>* addr, uint64_t value);
bool SafeCasWord(std::atomic<uint64_t>* addr, uint64_t expected, uint64_t desired);

// Write-acquires every orec covering [addr, addr + length) with interop priority,
// dooming in-flight readers and writers, and releases with a sequence bump — the
// 2PL equivalent of the lazy engine's version bump. Readers that refuse to drain
// within a bounded wait are left doomed (they abort at commit) rather than blocking
// the reclaimer.
void QuarantineRange(uintptr_t addr, std::size_t length);

// Test/inspection hooks.
uint64_t WriterWordOf(const void* addr);
bool ReadSlotHeld(uint32_t tid, const void* addr);

}  // namespace stacktrack::htm::orec

#endif  // STACKTRACK_HTM_OREC_BACKEND_H_
