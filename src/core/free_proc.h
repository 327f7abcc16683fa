// The StackTrack free procedure (Algorithm 1): SCAN_AND_FREE plus the per-thread
// root collection protocol (IS_IN_STACK / IS_IN_REGISTERS with the splits-counter
// retry and the oper-counter shortcut), run once per round into the §5.2 root table.
#ifndef STACKTRACK_CORE_FREE_PROC_H_
#define STACKTRACK_CORE_FREE_PROC_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/thread_context.h"
#include "runtime/barrier.h"

namespace stacktrack::core {

// Bounded global spillway for free-set candidates that cannot be reclaimed promptly:
// back-pressured survivors (a stalled thread keeps answering "live") and the
// unreclaimed buffers of exiting threads. Any thread's later ScanAndFree adopts a
// batch and retries them under the normal liveness scan, so candidates stranded
// behind a stall or a dead thread are reclaimed as soon as the stall clears — and the
// hard capacity keeps total deferred memory bounded even if it never does.
class DeferredFreeList {
 public:
  static constexpr std::size_t kCapacity = 4096;

  static DeferredFreeList& Instance();

  DeferredFreeList(const DeferredFreeList&) = delete;
  DeferredFreeList& operator=(const DeferredFreeList&) = delete;

  // Appends up to `count` candidates, consuming a prefix of `ptrs`. Returns how many
  // were accepted (the list is full beyond that).
  std::size_t Push(void* const* ptrs, std::size_t count);

  // Removes up to `max` candidates into `out`; returns the number popped.
  std::size_t PopBatch(void** out, std::size_t max);

  std::size_t Size() const { return size_.load(std::memory_order_acquire); }
  std::size_t peak() const { return peak_.load(std::memory_order_acquire); }

 private:
  DeferredFreeList() = default;

  runtime::SpinLatch latch_;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> peak_{0};
  void* slots_[kCapacity];
};

// Bit `tid` is set while the watchdog considers that thread stalled: mid-operation
// with no oper_counter progress across >= StConfig::watchdog_rounds scans. Bits clear
// when the thread advances. Updated opportunistically by every reclamation round.
uint64_t StalledThreadMask();

// One global watchdog round: walks registered threads and updates StalledThreadMask.
// Runs as the final stage of every ReclaimEngine round; a tick that loses the
// watchdog latch is skipped (rounds are global, not per thread).
void WatchdogTick(StContext& reclaimer);

// One reclamation round (Algorithm 1's SCAN_AND_FREE with the paper's §5.2
// optimization): collects every other registered thread's roots once into a sorted
// table, answers each free-set candidate with a range probe, and returns the memory of
// unreferenced candidates to the pool (after quarantining the range so in-flight
// transactional readers abort). Survivors stay buffered for the next call. Runs
// non-transactionally; multiple reclaimers may scan concurrently. Forwards to
// ReclaimEngine::Run — see core/reclaim_engine.h.
void ScanAndFree(StContext& reclaimer);

// Appends one thread's roots (exposed registers, tracked frame words, and reference-set
// entries when `check_refset`) to `roots` under Algorithm 1's consistency protocol
// (lines 12-30): an odd or changed splits counter retries, up to
// StConfig::inspect_retry_cap. If the target's oper_counter moves (while waiting out an
// odd counter or across the sweep) its operation finished and every root it held is
// dead — every candidate was retired before the round began, so no later operation can
// reach one — and the thread contributes nothing. Returns false, leaving `roots` as it
// found it, on retry exhaustion or an overflowed (unenumerable) reference set: the
// table is then incomplete and the round must free nothing.
bool CollectThreadRoots(StContext& reclaimer, const StContext& target, bool check_refset,
                        std::vector<uintptr_t>& roots);

}  // namespace stacktrack::core

#endif  // STACKTRACK_CORE_FREE_PROC_H_
