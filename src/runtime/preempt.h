// Mid-operation preemption injection (software-multiplexing regime).
//
// The paper's 9-16-thread regime is defined by threads losing the CPU *inside* data
// structure operations: a preempted reader stalls epoch-based reclamation, while
// non-blocking schemes (hazard pointers, drop-the-anchor, StackTrack) only pin a
// bounded set of nodes. On this 1-core host the OS deschedules threads constantly, but
// scheduler latency is too small and noisy to reproduce the effect deterministically,
// so the benchmark harness arms this hook instead: the data structures call
// PreemptPoint() once per traversal step, and an armed hook puts the thread to sleep
// mid-operation with a configured probability — a simulated timer interrupt.
//
// Disarmed cost: one relaxed load and a predictable branch.
#ifndef STACKTRACK_RUNTIME_PREEMPT_H_
#define STACKTRACK_RUNTIME_PREEMPT_H_

#include <unistd.h>

#include <atomic>
#include <cstdint>

#include "runtime/fault.h"
#include "runtime/rand.h"
#include "runtime/thread_registry.h"

namespace stacktrack::runtime {

namespace internal {
// 0 = disarmed. Otherwise a 32-bit threshold compared against a per-thread draw.
inline std::atomic<uint32_t> g_preempt_threshold{0};
inline std::atomic<uint32_t> g_preempt_delay_us{5000};

// Seeded from the thread id, not an address, so armed runs replay from a seed.
[[gnu::noinline]] inline void PreemptPointSlow() {
  thread_local Xorshift128 rng{0x9e370000ULL ^ uint64_t{CurrentThreadId()}};
  if (static_cast<uint32_t>(rng.Next()) <
      g_preempt_threshold.load(std::memory_order_relaxed)) {
    usleep(g_preempt_delay_us.load(std::memory_order_relaxed));
  }
}
}  // namespace internal

// Arms the hook: each visit sleeps `delay_us` with probability `prob_per_visit`.
inline void ArmPreemption(double prob_per_visit, uint32_t delay_us) {
  internal::g_preempt_delay_us.store(delay_us, std::memory_order_relaxed);
  internal::g_preempt_threshold.store(
      static_cast<uint32_t>(prob_per_visit * 4294967296.0), std::memory_order_relaxed);
}

inline void DisarmPreemption() {
  internal::g_preempt_threshold.store(0, std::memory_order_relaxed);
}

// Called by the data structures once per traversal step. Doubles as the fault
// injector's thread-level fault point (kThreadStall / kThreadDeath), so every
// traversal step is a place a thread can be stalled or killed deterministically.
// Always-inline: two relaxed loads in the caller's loop, the rest out of line.
[[gnu::always_inline]] inline void PreemptPoint() {
  if (internal::g_preempt_threshold.load(std::memory_order_relaxed) != 0) [[unlikely]] {
    internal::PreemptPointSlow();
  }
  if (fault::AnyArmed()) [[unlikely]] {
    fault::ThreadFaultPoint();
  }
}

}  // namespace stacktrack::runtime

#endif  // STACKTRACK_RUNTIME_PREEMPT_H_
