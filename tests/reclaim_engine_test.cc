// Tests for the staged reclamation pipeline's root table (core/reclaim_engine.h):
// every round collects its own table, so pins written after an earlier round are
// always observed; the reclaimer's own roots never block its frees while other
// threads' roots do; a thread whose operation completes mid-collection contributes
// nothing; and the incomplete-table rule (retry cap via injected phantom splits bumps,
// odd-seq stalls, refset overflow) makes a round free nothing.
#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "core/free_proc.h"
#include "core/reclaim_engine.h"
#include "runtime/fault.h"
#include "runtime/pool_alloc.h"
#include "runtime/thread_registry.h"

namespace stacktrack::core {
namespace {

using runtime::fault::Site;
namespace fault = runtime::fault;

class ReclaimEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::DisarmAll(); }
  void TearDown() override {
    fault::DisarmAll();
    // Every scenario must end fully reclaimed: residue in the global deferred list
    // would bleed into later tests' pool accounting.
    EXPECT_EQ(DeferredFreeList::Instance().Size(), 0u);
  }

  runtime::ThreadScope scope_;
};

// Claims a registry slot (below the watermark, so collections visit it) for the
// lifetime of one synthetic context. Declared before the context it backs: the
// context is destroyed first, then the slot is released.
struct SlotClaim {
  SlotClaim() : tid(runtime::ThreadRegistry::Instance().RegisterCurrentThread()) {}
  ~SlotClaim() { runtime::ThreadRegistry::Instance().Deregister(tid); }
  const uint32_t tid;
};

// Two reclaimers' rounds back to back: each collects its own table, and its
// verdicts are real — dead candidates are freed, pinned ones are kept.
TEST_F(ReclaimEngineTest, SecondReclaimerKeepsPinnedAndFreesDead) {
  SlotClaim a_slot, b_slot, victim_slot;
  StContext a(a_slot.tid, StConfig{});
  StContext b(b_slot.tid, StConfig{});
  StContext victim(victim_slot.tid, StConfig{});
  TrackedFrame<2> frame(victim);
  auto& pool = runtime::PoolAllocator::Instance();
  void* pinned = pool.Alloc(64);
  void* dead_a = pool.Alloc(64);
  void* dead_b = pool.Alloc(64);
  frame.words[0] = reinterpret_cast<uintptr_t>(pinned);

  a.MutableFreeSet() = {dead_a};
  ScanAndFree(a);
  EXPECT_FALSE(pool.OwnsLive(dead_a));

  b.MutableFreeSet() = {pinned, dead_b};
  ScanAndFree(b);
  EXPECT_TRUE(pool.OwnsLive(pinned)) << "table must block pinned nodes";
  EXPECT_FALSE(pool.OwnsLive(dead_b)) << "table must free dead nodes";
  EXPECT_EQ(b.stats.snapshot_reuses, 0u);

  frame.words[0] = 0;
  EXPECT_EQ(b.FlushFrees(), 0u);
  EXPECT_FALSE(pool.OwnsLive(pinned));
}

// A node pinned after an earlier round survives the next one, whatever the victim's
// counters did in between: a segment commit (splits_seq), an operation completion
// (oper_counter), a slow-path read (refset growth).
TEST_F(ReclaimEngineTest, PinAfterEarlierRoundSurvivesNextRound) {
  StConfig config;
  config.scan_refsets_always = true;
  SlotClaim a_slot, b_slot, victim_slot;
  StContext a(a_slot.tid, config);
  StContext b(b_slot.tid, config);
  StContext victim(victim_slot.tid, config);
  TrackedFrame<2> frame(victim);
  auto& pool = runtime::PoolAllocator::Instance();
  void* node = pool.Alloc(64);

  a.MutableFreeSet() = {pool.Alloc(64)};
  ScanAndFree(a);  // a round that sees no pin on `node`
  frame.words[0] = reinterpret_cast<uintptr_t>(node);
  victim.splits_seq.fetch_add(2, std::memory_order_release);
  b.MutableFreeSet() = {node};
  ScanAndFree(b);
  EXPECT_TRUE(pool.OwnsLive(node)) << "splits movement: pinned node freed";

  victim.oper_counter.fetch_add(1, std::memory_order_release);
  ScanAndFree(b);
  EXPECT_TRUE(pool.OwnsLive(node)) << "oper movement: pinned node freed";

  // The pin moves from the frame to the reference set.
  frame.words[0] = 0;
  victim.ref_set.Add(reinterpret_cast<uintptr_t>(node));
  ScanAndFree(b);
  EXPECT_TRUE(pool.OwnsLive(node)) << "refset pin: node freed";
  victim.ref_set.Clear();

  EXPECT_EQ(b.FlushFrees(), 0u);
  EXPECT_FALSE(pool.OwnsLive(node));
}

// A pin written into a tracked frame with NO splits or oper movement (a raw stack
// word) must still block the next reclaimer's round. A root table shared between
// reclaimers and revalidated by counters alone would miss it and free the node.
TEST_F(ReclaimEngineTest, SilentFramePinBlocksOtherReclaimersNextRound) {
  SlotClaim a_slot, b_slot, victim_slot;
  StContext a(a_slot.tid, StConfig{});
  StContext b(b_slot.tid, StConfig{});
  StContext victim(victim_slot.tid, StConfig{});
  TrackedFrame<2> frame(victim);
  auto& pool = runtime::PoolAllocator::Instance();
  void* node = pool.Alloc(64);

  a.MutableFreeSet() = {pool.Alloc(64)};
  ScanAndFree(a);  // a complete round that sees no pin on `node`
  frame.words[0] = reinterpret_cast<uintptr_t>(node);  // no counter moves

  b.MutableFreeSet() = {node};
  ScanAndFree(b);
  EXPECT_TRUE(pool.OwnsLive(node)) << "pin written without counter movement was missed";

  frame.words[0] = 0;
  EXPECT_EQ(b.FlushFrees(), 0u);
  EXPECT_FALSE(pool.OwnsLive(node));
}

// Phantom splits bumps (the kSplitsBump injection firing on every consistency check)
// exhaust the collection retry cap: the table is incomplete, and the round must free
// NOTHING — not even completely unreferenced candidates.
TEST_F(ReclaimEngineTest, RetryCappedCollectionFreesNothingAndPublishesNothing) {
  StConfig config;
  config.inspect_retry_cap = 4;
  SlotClaim a_slot, victim_slot;
  StContext a(a_slot.tid, config);
  StContext victim(victim_slot.tid, config);
  auto& pool = runtime::PoolAllocator::Instance();
  void* dead = pool.Alloc(64);

  fault::ArmGate(Site::kSplitsBump);
  a.MutableFreeSet() = {dead};
  ScanAndFree(a);
  fault::Disarm(Site::kSplitsBump);

  EXPECT_TRUE(pool.OwnsLive(dead)) << "incomplete table cannot prove deadness";
  EXPECT_EQ(a.free_set_size(), 1u);
  EXPECT_GE(a.stats.snapshot_incomplete, 1u);
  EXPECT_GT(a.stats.scan_retry_capped, 0u);

  // Fault cleared: the very next round reclaims.
  EXPECT_EQ(a.FlushFrees(), 0u);
  EXPECT_FALSE(pool.OwnsLive(dead));
}

// A thread parked with its splits counter odd (stalled mid-exposure) starves the
// collection through the odd-seq retry path, with the same frees-nothing outcome.
TEST_F(ReclaimEngineTest, OddSeqStallMakesRoundIncomplete) {
  StConfig config;
  config.inspect_retry_cap = 4;
  SlotClaim a_slot, victim_slot;
  StContext a(a_slot.tid, config);
  StContext victim(victim_slot.tid, config);
  auto& pool = runtime::PoolAllocator::Instance();
  void* dead = pool.Alloc(64);

  victim.splits_seq.store(1, std::memory_order_release);  // exposure "in flight"
  a.MutableFreeSet() = {dead};
  ScanAndFree(a);
  EXPECT_TRUE(pool.OwnsLive(dead));
  EXPECT_GE(a.stats.snapshot_incomplete, 1u);

  victim.splits_seq.store(2, std::memory_order_release);  // exposure finished
  EXPECT_EQ(a.FlushFrees(), 0u);
  EXPECT_FALSE(pool.OwnsLive(dead));
}

// Algorithm 1's oper-counter shortcut, through a whole round: the victim is parked
// mid-exposure (splits counter odd) with the candidate still in its tracked frame, and
// its operations complete while the round waits on it. A completed operation's roots
// are dead, so the round must free the candidate rather than exhaust the (default)
// retry cap into an incomplete table that frees nothing.
TEST_F(ReclaimEngineTest, CompletedOperationLetsRoundFreeDespiteOddSeq) {
  SlotClaim a_slot, victim_slot;
  StContext a(a_slot.tid, StConfig{});
  StContext victim(victim_slot.tid, StConfig{});
  TrackedFrame<2> frame(victim);
  auto& pool = runtime::PoolAllocator::Instance();
  void* node = pool.Alloc(64);
  frame.words[0] = reinterpret_cast<uintptr_t>(node);
  victim.splits_seq.store(1, std::memory_order_release);  // exposure "in flight"

  std::atomic<bool> done{false};
  std::thread completer([&] {
    while (!done.load(std::memory_order_acquire)) {
      victim.oper_counter.fetch_add(1, std::memory_order_release);
      sched_yield();
    }
  });
  a.MutableFreeSet() = {node};
  ScanAndFree(a);
  done.store(true, std::memory_order_release);
  completer.join();
  victim.splits_seq.store(2, std::memory_order_release);
  frame.words[0] = 0;

  EXPECT_FALSE(pool.OwnsLive(node)) << "a completed operation's root blocked the free";
  EXPECT_EQ(a.free_set_size(), 0u);
  EXPECT_EQ(a.stats.snapshot_incomplete, 0u);
}

// An overflowed reference set cannot be enumerated into a table; with refset
// scanning in force the round is incomplete and frees nothing.
TEST_F(ReclaimEngineTest, RefsetOverflowMakesRoundIncomplete) {
  StConfig config;
  config.scan_refsets_always = true;
  SlotClaim a_slot, victim_slot;
  StContext a(a_slot.tid, config);
  StContext victim(victim_slot.tid, config);
  auto& pool = runtime::PoolAllocator::Instance();
  void* dead = pool.Alloc(64);

  for (uint32_t i = 0; i <= RefSet::kSlots; ++i) {
    victim.ref_set.Add(0x1000);
  }
  ASSERT_TRUE(victim.ref_set.overflowed());

  a.MutableFreeSet() = {dead};
  ScanAndFree(a);
  EXPECT_TRUE(pool.OwnsLive(dead));
  EXPECT_GE(a.stats.snapshot_incomplete, 1u);

  victim.ref_set.Clear();
  EXPECT_EQ(a.FlushFrees(), 0u);
  EXPECT_FALSE(pool.OwnsLive(dead));
}

// Roots still sitting in the reclaimer's own frames after its operation ended are
// dead by contract: collection skips the reclaimer's thread, so they never block.
TEST_F(ReclaimEngineTest, SharedTableExcludesReclaimersOwnRoots) {
  SlotClaim b_slot;
  StContext b(b_slot.tid, StConfig{});
  TrackedFrame<2> frame(b);  // b's own (dead-by-contract) root
  auto& pool = runtime::PoolAllocator::Instance();
  void* node = pool.Alloc(64);
  frame.words[0] = reinterpret_cast<uintptr_t>(node);

  b.MutableFreeSet() = {node};
  ScanAndFree(b);
  EXPECT_FALSE(pool.OwnsLive(node))
      << "a reclaimer's own roots must not block its frees";
  frame.words[0] = 0;
}

// ...but the same root in ANOTHER thread's frame does block the free.
TEST_F(ReclaimEngineTest, SharedTableKeepsOtherThreadsRoots) {
  SlotClaim a_slot, b_slot;
  StContext a(a_slot.tid, StConfig{});
  StContext b(b_slot.tid, StConfig{});
  TrackedFrame<2> frame(a);
  auto& pool = runtime::PoolAllocator::Instance();
  void* node = pool.Alloc(64);
  frame.words[0] = reinterpret_cast<uintptr_t>(node);

  b.MutableFreeSet() = {node};
  ScanAndFree(b);
  EXPECT_TRUE(pool.OwnsLive(node));

  frame.words[0] = 0;
  EXPECT_EQ(b.FlushFrees(), 0u);
  EXPECT_FALSE(pool.OwnsLive(node));
}

}  // namespace
}  // namespace stacktrack::core
