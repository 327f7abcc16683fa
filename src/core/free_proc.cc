#include "core/free_proc.h"

#include <sched.h>

#include <algorithm>
#include <cstring>

#include "core/reclaim_engine.h"
#include "runtime/backoff.h"
#include "runtime/fault.h"
#include "runtime/trace.h"

namespace stacktrack::core {

namespace trace = runtime::trace;

DeferredFreeList& DeferredFreeList::Instance() {
  static DeferredFreeList list;
  return list;
}

std::size_t DeferredFreeList::Push(void* const* ptrs, std::size_t count) {
  runtime::LatchGuard guard(latch_);
  const std::size_t used = size_.load(std::memory_order_relaxed);
  const std::size_t accepted = std::min(count, kCapacity - used);
  if (accepted != 0) {
    std::memcpy(&slots_[used], ptrs, accepted * sizeof(void*));
    size_.store(used + accepted, std::memory_order_release);
    if (used + accepted > peak_.load(std::memory_order_relaxed)) {
      peak_.store(used + accepted, std::memory_order_release);
    }
  }
  return accepted;
}

std::size_t DeferredFreeList::PopBatch(void** out, std::size_t max) {
  if (size_.load(std::memory_order_acquire) == 0) {
    return 0;  // common case: no spillover anywhere, skip the latch
  }
  runtime::LatchGuard guard(latch_);
  const std::size_t used = size_.load(std::memory_order_relaxed);
  const std::size_t popped = std::min(max, used);
  if (popped != 0) {
    std::memcpy(out, &slots_[used - popped], popped * sizeof(void*));
    size_.store(used - popped, std::memory_order_release);
  }
  return popped;
}

namespace {

// Watchdog bookkeeping shared by all reclaimers. Each reclamation round counts as one
// tick; a thread that is mid-operation (op_active set) with an unchanged
// oper_counter for watchdog_rounds consecutive rounds is flagged as stalled.
// oper_counter alone cannot distinguish "stalled" from "idle", hence op_active.
struct Watchdog {
  runtime::SpinLatch latch;
  uint64_t round = 0;
  uint64_t last_oper[runtime::kMaxThreads] = {};
  uint64_t last_progress_round[runtime::kMaxThreads] = {};
  std::atomic<uint64_t> stalled_mask{0};
};

Watchdog& TheWatchdog() {
  static Watchdog wd;
  return wd;
}

}  // namespace

void WatchdogTick(StContext& reclaimer) {
  Watchdog& wd = TheWatchdog();
  if (!wd.latch.TryLock()) {
    return;  // another reclaimer is ticking; rounds are global, not per thread
  }
  const uint64_t round = ++wd.round;
  const uint64_t threshold = reclaimer.config().watchdog_rounds;
  uint64_t mask = wd.stalled_mask.load(std::memory_order_relaxed);
  const uint32_t watermark = runtime::ThreadRegistry::Instance().high_watermark();
  for (uint32_t tid = 0; tid < watermark && tid < runtime::kMaxThreads; ++tid) {
    const uint64_t bit = uint64_t{1} << tid;
    StContext* target = ActivityArray::Instance().Get(tid);
    if (target == nullptr) {
      mask &= ~bit;
      wd.last_progress_round[tid] = round;
      continue;
    }
    const uint64_t oper = target->oper_counter.load(std::memory_order_acquire);
    const bool mid_op = target->op_active.load(std::memory_order_acquire) != 0;
    if (oper != wd.last_oper[tid] || !mid_op) {
      wd.last_oper[tid] = oper;
      wd.last_progress_round[tid] = round;
      mask &= ~bit;
    } else if ((mask & bit) == 0 && round - wd.last_progress_round[tid] >= threshold) {
      mask |= bit;
      ++reclaimer.stats.watchdog_reports;
      trace::Emit(trace::Event::kWatchdogReport, tid);
    }
  }
  wd.stalled_mask.store(mask, std::memory_order_release);
  wd.latch.Unlock();
}

bool CollectThreadRoots(StContext& reclaimer, const StContext& target, bool check_refset,
                        std::vector<uintptr_t>& roots) {
  ++reclaimer.stats.scan_thread_inspects;
  // Algorithm 1's restart argument assumes the exposing thread always finishes its
  // commit; a thread preempted (or killed) mid-exposure would otherwise spin this
  // loop forever and wedge every reclaimer behind it. Cap the retries and report the
  // table incomplete on exhaustion — conservatively delaying the free is always safe,
  // the candidates just stay buffered and back-pressure takes over.
  const uint32_t retry_cap = reclaimer.config().inspect_retry_cap;
  runtime::ExponentialBackoff backoff(16, 4096);
  uint32_t retries = 0;
  // scan_words accumulates locally (across retries) and is flushed once on exit — a
  // per-word store to the (cross-thread-summed) stats block is a hot-loop write the
  // sweep can skip.
  uint64_t scanned = 0;
  const std::size_t mark = roots.size();
  const uint64_t oper_pre = target.oper_counter.load(std::memory_order_acquire);
  bool complete = false;
  while (true) {
    const uint64_t seq_pre = target.splits_seq.load(std::memory_order_acquire);
    if ((seq_pre & 1) != 0) {
      // Register exposure in flight; normally the exposing thread is committing,
      // i.e. making progress — wait it out.
      ++reclaimer.stats.scan_restarts;
      if (++retries > retry_cap) {
        ++reclaimer.stats.scan_retry_capped;
        break;
      }
      backoff.Pause();
      sched_yield();
      if (target.oper_counter.load(std::memory_order_acquire) != oper_pre) {
        complete = true;  // operation completed; its roots are dead
        break;
      }
      continue;
    }
    if (check_refset && target.ref_set.overflowed()) {
      break;
    }
    const uint32_t refset_count = check_refset ? target.ref_set.size() : 0;
    runtime::fault::MaybeStall(runtime::fault::Site::kInspectStall);
    // Raw words, unfiltered: the verdict probe matches by range containment, which
    // subsumes exact matches, interior pointers (array elements, member addresses)
    // and mark/freeze tag bits folded into low pointer bits by the data structures.
    for (uint32_t i = 0; i < kRegisterSlots; ++i) {
      const uintptr_t word = target.exposed_regs[i].load(std::memory_order_acquire);
      ++scanned;
      if (word != 0) {
        roots.push_back(word);
      }
    }
    const uint32_t frames = target.frame_count.load(std::memory_order_acquire);
    for (uint32_t f = 0; f < frames && f < kMaxFrames; ++f) {
      const uintptr_t lo = target.frames[f].lo.load(std::memory_order_acquire);
      const uintptr_t hi = target.frames[f].hi.load(std::memory_order_acquire);
      if (lo == 0 || hi <= lo) {
        continue;
      }
      for (uintptr_t addr = lo; addr + sizeof(uintptr_t) <= hi; addr += sizeof(uintptr_t)) {
        const uintptr_t word =
            reinterpret_cast<const std::atomic<uintptr_t>*>(addr)->load(
                std::memory_order_acquire);
        ++scanned;
        if (word != 0) {
          roots.push_back(word);
        }
      }
    }
    for (uint32_t i = 0; i < refset_count; ++i) {
      const uintptr_t word = target.ref_set.slot(i);
      if (word != 0) {
        roots.push_back(word);
      }
    }
    const uint64_t seq_post = target.splits_seq.load(std::memory_order_acquire);
    const uint64_t oper_post = target.oper_counter.load(std::memory_order_acquire);
    if (oper_pre != oper_post) {
      // The scanned operation finished: whatever we observed is obsolete, and the
      // roots it held are gone. Move on to the next thread (Algorithm 1 lines 25-29).
      roots.resize(mark);
      complete = true;
      break;
    }
    if (seq_pre != seq_post ||
        runtime::fault::ShouldFire(runtime::fault::Site::kSplitsBump)) {
      // A segment committed mid-sweep (or the injector pretends one did); resweep.
      roots.resize(mark);
      ++reclaimer.stats.scan_restarts;
      if (++retries > retry_cap) {
        ++reclaimer.stats.scan_retry_capped;
        break;
      }
      backoff.Pause();
      continue;
    }
    complete = true;
    break;
  }
  reclaimer.stats.scan_words += scanned;
  return complete;
}

void ScanAndFree(StContext& reclaimer) { ReclaimEngine::Run(reclaimer); }

uint64_t StalledThreadMask() {
  return TheWatchdog().stalled_mask.load(std::memory_order_acquire);
}

}  // namespace stacktrack::core
