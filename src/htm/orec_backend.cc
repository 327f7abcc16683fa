#include "htm/orec_backend.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "runtime/backoff.h"
#include "runtime/fault.h"
#include "runtime/machine_model.h"
#include "runtime/trace.h"

namespace stacktrack::htm::orec {
namespace {

// Cause codes mirror htm::AbortCause; plain ints to avoid the cyclic include
// (htm.h includes this backend's header).
constexpr int kCauseConflict = 1;
constexpr int kCauseCapacity = 2;
constexpr int kCauseOther = 4;
constexpr int kCauseConflictReader = 5;
constexpr int kCauseConflictWriter = 6;

// Seed of each thread's spurious-abort stream, applied at its first BeginPoint.
constexpr uint64_t kRngSeed = 0x02f1beef;

// Duel/drain budgets: each round also runs a ContentionWait round, so the
// worst-case wait matches the lazy engine's 64-round contended-load spin.
constexpr uint32_t kAcquireRounds = 64;
constexpr uint32_t kDrainRounds = 64;

// Contended-wait pacing: brief pause-spinning first, then cede the CPU. Eager 2PL
// holds locks across preemption, so on an oversubscribed host the holder we are
// waiting for is very likely descheduled — no amount of _mm_pause can release its
// lock, only giving it the CPU can. Without the yield escalation a 1-CPU run turns
// every preempted writer into an abort storm (every other thread burns its whole
// timeslice retrying against the same held orec).
class ContentionWait {
 public:
  void Round() {
    if (rounds_++ < kSpinRounds) {
      backoff_.Pause();
    } else {
      std::this_thread::yield();
    }
  }

 private:
  static constexpr uint32_t kSpinRounds = 8;
  uint32_t rounds_ = 0;
  runtime::ExponentialBackoff backoff_;
};

constexpr bool ConflictFamily(int cause) {
  return cause == kCauseConflict || cause == kCauseConflictReader ||
         cause == kCauseConflictWriter;
}

void ResetTx(TxDesc& tx) {
  tx.read_count = 0;
  tx.write_count = 0;
  tx.undo_count = 0;
  tx.access_count = 0;
}

// Dooms the transaction currently holding lock word `w` (no-op for interop
// holders). Stores the victim's token so a stale doom can never hit a later
// transaction of the same thread.
void DoomByWord(uint64_t w) {
  const uint64_t field = OwnerFieldOf(w);
  if (field == kInteropOwnerField || field == 0) {
    return;
  }
  const uint32_t tid = static_cast<uint32_t>(field - 1);
  g_doomed[tid].value.store(OwnerTokenOf(w), std::memory_order_release);
}

// Releases everything the transaction holds. On abort, in-place writes are undone
// in reverse order first — the writer words are still held, so no other writer can
// interleave, and the release stores below publish the restored values.
void ReleaseAll(TxDesc& tx, bool committed) {
  if (!committed) {
    for (uint32_t i = tx.undo_count; i-- > 0;) {
      tx.undo_log[i].addr->store(tx.undo_log[i].value, std::memory_order_relaxed);
    }
  }
  for (uint32_t i = 0; i < tx.write_count; ++i) {
    g_writer[tx.write_orecs[i]].store(ReleasedWord(tx.write_prelock[i]),
                                      std::memory_order_release);
  }
  for (uint32_t i = 0; i < tx.read_count; ++i) {
    g_read_slots[tx.tid][tx.read_orecs[i]].store(0, std::memory_order_release);
  }
  g_tokens[tx.tid].value.store(0, std::memory_order_release);
}

[[noreturn]] void AbortTx(TxDesc& tx, int cause, bool eager) {
  const uint64_t footprint = tx.read_count + tx.write_count;
  if (tx.stats.max_footprint < footprint) {
    tx.stats.max_footprint = footprint;
  }
  if (ConflictFamily(cause)) {
    StmTxCounters& c = CurrentStmCounters();
    eager ? ++c.eager_conflict_aborts : ++c.commit_conflict_aborts;
  }
  ReleaseAll(tx, /*committed=*/false);
  if (!ConflictFamily(cause)) {
    tx.token = 0;  // aging only helps against the conflicter that beat us
  }
  tx.active = false;
  ResetTx(tx);
  std::longjmp(tx.env, cause);
}

uint64_t NewToken() { return g_token_clock.fetch_add(1, std::memory_order_relaxed); }

// Waits for other threads' read slots on `orec` to clear, called with the writer
// word held. Younger readers are doomed; an older reader wins and we report failure
// (caller aborts). Returns false as well if we were doomed while waiting or a
// doomed reader would not budge within the budget.
bool DrainReaders(TxDesc& tx, uint32_t orec) {
  const uint32_t watermark = runtime::ThreadRegistry::Instance().high_watermark();
  StmTxCounters& counters = CurrentStmCounters();
  for (uint32_t t = 0; t < watermark; ++t) {
    if (t == tx.tid) {
      continue;  // our own read slot coexists with our write lock
    }
    std::atomic<uint8_t>& slot = g_read_slots[t][orec];
    if (slot.load(std::memory_order_seq_cst) == 0) {
      continue;
    }
    ++counters.orec_waits;
    const uint64_t reader_token = g_tokens[t].value.load(std::memory_order_acquire);
    const bool older_reader = reader_token != 0 && reader_token < tx.token;
    if (reader_token != 0 && !older_reader) {
      g_doomed[t].value.store(reader_token, std::memory_order_release);
      ++counters.priority_handoffs;
    }
    // An older reader is waited out (it keeps the orec — readers hold their slots
    // until commit, which is microseconds away); a doomed younger reader clears its
    // slot at its next cold path; token == 0 means the slot is mid-release. All
    // three resolve within the budget unless the holder is preempted, which the
    // ContentionWait yields handle.
    ContentionWait wait;
    for (uint32_t round = 0; round < kDrainRounds; ++round) {
      if (slot.load(std::memory_order_acquire) == 0) {
        break;
      }
      if (Doomed(tx)) {
        return false;  // an older conflicter doomed us while we waited
      }
      wait.Round();
    }
    if (slot.load(std::memory_order_acquire) != 0) {
      // Budget exhausted. Against an older reader we die (wait-die keeps the old
      // side winning); a doomed younger reader that would not budge is safe to run
      // over — it can never commit its observations — so only the older case fails.
      if (older_reader &&
          g_tokens[t].value.load(std::memory_order_acquire) == reader_token) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int BeginPoint(int jmp_rc) {
  TxDesc& tx = tls_tx;
  if (jmp_rc != 0) {
    // Arrived via an abort longjmp; descriptor and locks already released. Every
    // 2PL abort resumes through here, the one place the abort event is recorded.
    runtime::trace::Emit(runtime::trace::Event::kSegmentAbort,
                         static_cast<uint64_t>(jmp_rc));
    return jmp_rc;
  }
  if (tx.active) {
    std::fprintf(stderr, "stacktrack: nested 2pl transactions are not supported\n");
    std::abort();
  }
  const uint32_t tid = runtime::CurrentThreadId();
  if (tid == runtime::kInvalidThreadId) {
    std::fprintf(stderr,
                 "stacktrack: the 2pl engine requires a registered thread "
                 "(runtime::ThreadScope) to own its read slots\n");
    std::abort();
  }
  tx.tid = tid;
  tx.active = true;
  ResetTx(tx);
  if (!tx.rng.Seeded()) [[unlikely]] {
    tx.rng.Seed(kRngSeed);  // first transaction of this thread
  }
  const auto& model = runtime::MachineModel::Instance();
  tx.capacity_limit = model.CapacityLinesNow();
  tx.spurious_prob = model.SpuriousAbortProbNow();
  tx.spurious_enabled = tx.spurious_prob > 0.0;
  tx.fast_access_limit = tx.spurious_enabled ? 0 : tx.capacity_limit;
  if (tx.token == 0) {
    tx.token = NewToken();
  }
  // Any doom still in flight targeted the previous attempt's (released) locks.
  g_doomed[tid].value.store(0, std::memory_order_relaxed);
  g_tokens[tid].value.store(tx.token, std::memory_order_release);
  if (runtime::fault::ShouldFire(runtime::fault::Site::kSoftTxAbort)) [[unlikely]] {
    const uint64_t payload = runtime::fault::Payload(runtime::fault::Site::kSoftTxAbort);
    const int cause = payload != 0 ? static_cast<int>(payload) : kCauseConflict;
    AbortTx(tx, cause, /*eager=*/true);
  }
  return 0;
}

void SlowAccessChecks(TxDesc& tx) {
  if (tx.access_count > tx.capacity_limit) {
    AbortTx(tx, kCauseCapacity, /*eager=*/false);
  }
  if (tx.spurious_enabled && tx.rng.NextBool(tx.spurious_prob)) {
    AbortTx(tx, kCauseOther, /*eager=*/false);
  }
}

void ReadLockContended(TxDesc& tx, uint32_t orec) {
  std::atomic<uint8_t>& slot = g_read_slots[tx.tid][orec];
  std::atomic<uint64_t>& word = g_writer[orec];
  StmTxCounters& counters = CurrentStmCounters();
  ++counters.orec_waits;
  uint64_t doomed_word = 0;
  ContentionWait wait;
  for (uint32_t round = 0; round < kAcquireRounds; ++round) {
    // Step aside so the holder's reader drain is not blocked on us while we wait on
    // it (the slot is not logged yet — every abort below leaves it clear).
    slot.store(0, std::memory_order_relaxed);
    if (Doomed(tx)) {
      AbortTx(tx, kCauseConflictWriter, /*eager=*/true);
    }
    uint64_t w = word.load(std::memory_order_acquire);
    if (WordLocked(w) && OwnerFieldOf(w) != tx.tid + 1) {
      // Wait-then-die (see WriteLockAcquire): older holders are waited out rather
      // than aborted against instantly; younger holders are doomed once per
      // distinct lock word. Our doomed flag is rechecked each round, which breaks
      // any wait-for cycle at its older→younger edge.
      if (OwnerTokenOf(w) >= tx.token && w != doomed_word) {
        DoomByWord(w);
        doomed_word = w;
        ++counters.priority_handoffs;
      }
      wait.Round();
      continue;
    }
    // Writer gone: re-publish the slot, then re-check (Dekker, see AcquireReadLock).
    slot.exchange(1, std::memory_order_seq_cst);
    w = word.load(std::memory_order_seq_cst);
    if (!WordLocked(w) || OwnerFieldOf(w) == tx.tid + 1) {
      return;  // slot held, no conflicting writer
    }
  }
  slot.store(0, std::memory_order_relaxed);
  AbortTx(tx, kCauseConflictWriter, /*eager=*/true);
}

void WriteLockAcquire(TxDesc& tx, uint32_t orec) {
  if (tx.write_count >= kWriteSetEntries) {
    AbortCapacity();
  }
  std::atomic<uint64_t>& word = g_writer[orec];
  StmTxCounters& counters = CurrentStmCounters();
  bool counted_wait = false;
  uint64_t doomed_word = 0;
  ContentionWait wait;
  for (uint32_t round = 0; round < kAcquireRounds; ++round) {
    if (Doomed(tx)) {
      AbortTx(tx, kCauseConflictWriter, /*eager=*/true);
    }
    uint64_t w = word.load(std::memory_order_acquire);
    if (!WordLocked(w)) {
      if (!word.compare_exchange_weak(w, LockWord(tx.tid + 1, tx.token),
                                      std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
        continue;
      }
      tx.write_orecs[tx.write_count] = orec;
      tx.write_prelock[tx.write_count] = w;
      tx.write_count += 1;
      if (!DrainReaders(tx, orec)) {
        // An older reader holds the orec (or we were doomed mid-drain). ReleaseAll
        // inside AbortTx releases the word we just took.
        AbortTx(tx, kCauseConflictReader, /*eager=*/true);
      }
      return;
    }
    if (OwnerFieldOf(w) == tx.tid + 1) {
      return;  // already ours
    }
    if (!counted_wait) {
      ++counters.orec_waits;
      counted_wait = true;
    }
    // Wait-THEN-die, not instant wait-die: an older holder usually releases within
    // a few rounds (or one yield, if it was preempted), so the young side waits out
    // the budget before giving up. A younger holder is doomed once per distinct
    // lock word and then waited for the same way. Waiting is deadlock-free in both
    // directions because every wait round rechecks our own doomed flag: any
    // wait-for cycle contains at least one older→younger edge whose younger end
    // has been doomed and breaks the cycle by aborting.
    if (OwnerTokenOf(w) >= tx.token && w != doomed_word) {
      DoomByWord(w);
      doomed_word = w;
      ++counters.priority_handoffs;
    }
    wait.Round();
  }
  AbortTx(tx, kCauseConflictWriter, /*eager=*/true);
}

void AbortCapacity() { AbortTx(tls_tx, kCauseCapacity, /*eager=*/false); }

void Commit() {
  TxDesc& tx = tls_tx;
  if (!tx.active) {
    std::fprintf(stderr, "stacktrack: commit without an active 2pl transaction\n");
    std::abort();
  }
  const uint64_t footprint = tx.read_count + tx.write_count;
  if (tx.stats.max_footprint < footprint) {
    tx.stats.max_footprint = footprint;
  }
  if (Doomed(tx)) {
    // The one commit-time abort this engine has: a higher-priority conflicter doomed
    // us after our last cold path. No validation otherwise — locks were held all
    // along, so the read/write set is consistent by construction.
    AbortTx(tx, kCauseConflictWriter, /*eager=*/false);
  }
  ReleaseAll(tx, /*committed=*/true);
  tx.token = 0;  // a committed transaction does not age
  tx.active = false;
  ResetTx(tx);
}

void Abort(int cause) { AbortTx(tls_tx, cause, /*eager=*/true); }

uint64_t SafeLoadWord(const std::atomic<uint64_t>* addr) {
  const uint32_t orec = OrecIndexOf(reinterpret_cast<uintptr_t>(addr));
  std::atomic<uint64_t>& word = g_writer[orec];
  const TxDesc& tx = tls_tx;
  ContentionWait wait;
  while (true) {
    const uint64_t w1 = word.load(std::memory_order_acquire);
    if (!WordLocked(w1)) {
      const uint64_t value = addr->load(std::memory_order_acquire);
      // The release sequence advances on every release, so an intermediate
      // acquire/release cycle (even an aborted one) cannot go unnoticed.
      if (word.load(std::memory_order_acquire) == w1) {
        return value;
      }
    } else if (tx.active && OwnerFieldOf(w1) == tx.tid + 1) {
      return addr->load(std::memory_order_acquire);  // our own in-place writes
    }
    wait.Round();
  }
}

namespace {

// Acquires `orec`'s writer word as an interop owner and dooms in-flight readers.
// Returns the pre-lock word for the caller's release. If the calling thread's own
// running transaction holds the word, that transaction aborts (longjmp) — waiting
// would deadlock, and the interop caller retries after the segment unwinds.
uint64_t InteropAcquire(uint32_t orec) {
  std::atomic<uint64_t>& word = g_writer[orec];
  TxDesc& tx = tls_tx;
  ContentionWait wait;
  uint64_t prelock = 0;
  while (true) {
    uint64_t w = word.load(std::memory_order_acquire);
    if (!WordLocked(w)) {
      if (word.compare_exchange_weak(w, LockWord(kInteropOwnerField, kInteropToken),
                                     std::memory_order_seq_cst,
                                     std::memory_order_relaxed)) {
        prelock = w;
        break;
      }
      continue;
    }
    if (tx.active && OwnerFieldOf(w) == tx.tid + 1) {
      AbortTx(tx, kCauseConflictWriter, /*eager=*/true);
    }
    DoomByWord(w);  // transactional holder: make it yield; interop holders finish fast
    wait.Round();
  }
  // Doom readers; skip our own slot (quarantine from inside a reading transaction
  // must not self-deadlock — dooming ourselves is enough, commit will abort).
  const uint32_t watermark = runtime::ThreadRegistry::Instance().high_watermark();
  const uint32_t self = tx.active ? tx.tid : runtime::kInvalidThreadId;
  for (uint32_t t = 0; t < watermark; ++t) {
    std::atomic<uint8_t>& slot = g_read_slots[t][orec];
    if (slot.load(std::memory_order_seq_cst) == 0) {
      continue;
    }
    const uint64_t reader_token = g_tokens[t].value.load(std::memory_order_acquire);
    if (reader_token != 0) {
      g_doomed[t].value.store(reader_token, std::memory_order_release);
    }
    if (t == self) {
      continue;  // doomed ourselves; do not wait on our own slot
    }
    ContentionWait drain;
    for (uint32_t round = 0; round < kDrainRounds; ++round) {
      if (slot.load(std::memory_order_acquire) == 0) {
        break;
      }
      drain.Round();
    }
    // A reader still holding past the budget is doomed and will abort at commit;
    // proceeding is safe for the same reason the lazy engine's version bump is —
    // its observations can never commit.
  }
  return prelock;
}

}  // namespace

void SafeStoreWord(std::atomic<uint64_t>* addr, uint64_t value) {
  const uint32_t orec = OrecIndexOf(reinterpret_cast<uintptr_t>(addr));
  const uint64_t prelock = InteropAcquire(orec);
  addr->store(value, std::memory_order_release);
  g_writer[orec].store(ReleasedWord(prelock), std::memory_order_release);
}

bool SafeCasWord(std::atomic<uint64_t>* addr, uint64_t expected, uint64_t desired) {
  const uint32_t orec = OrecIndexOf(reinterpret_cast<uintptr_t>(addr));
  const uint64_t prelock = InteropAcquire(orec);
  const bool ok = addr->load(std::memory_order_acquire) == expected;
  if (ok) {
    addr->store(desired, std::memory_order_release);
  }
  g_writer[orec].store(ReleasedWord(prelock), std::memory_order_release);
  return ok;
}

void QuarantineRange(uintptr_t addr, std::size_t length) {
  const uintptr_t first_line = addr & ~uintptr_t{63};
  const uintptr_t last_line = (addr + (length == 0 ? 0 : length - 1)) & ~uintptr_t{63};
  for (uintptr_t line = first_line; line <= last_line; line += 64) {
    const uint32_t orec = OrecIndexOf(line);
    const uint64_t prelock = InteropAcquire(orec);
    g_writer[orec].store(ReleasedWord(prelock), std::memory_order_release);
  }
}

uint64_t WriterWordOf(const void* addr) {
  return g_writer[OrecIndexOf(reinterpret_cast<uintptr_t>(addr))].load(
      std::memory_order_acquire);
}

bool ReadSlotHeld(uint32_t tid, const void* addr) {
  return g_read_slots[tid][OrecIndexOf(reinterpret_cast<uintptr_t>(addr))].load(
      std::memory_order_acquire) != 0;
}

}  // namespace stacktrack::htm::orec
