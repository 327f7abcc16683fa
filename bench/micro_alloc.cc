// Microbenchmark for the pool allocation path itself (no SMR machinery on top):
// alloc/free pair throughput at 1/2/4/8 threads, with either same-thread frees
// (producer == consumer, the magazine fast path) or cross-thread frees (blocks
// allocated here, freed there — the traffic pattern ScanAndFree generates when a
// reclaimer frees another thread's retired nodes).
//
// Run with --benchmark_format=json for machine-readable output; the committed
// BENCH_alloc.json trajectory file records items_per_second from exactly that.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "runtime/cacheline.h"
#include "runtime/pool_alloc.h"

namespace stacktrack {
namespace {

constexpr std::size_t kBatch = 64;       // blocks per alloc/free burst
constexpr std::size_t kBlockBytes = 64;  // one cache line of user data
constexpr int kMaxBenchThreads = 16;

// Each thread allocates a burst and frees it LIFO — every free is satisfied by the
// allocating thread, the common case for data-structure nodes retired by their owner.
void BM_AllocFreeSameThread(benchmark::State& state) {
  auto& pool = runtime::PoolAllocator::Instance();
  void* blocks[kBatch];
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBatch; ++i) {
      blocks[i] = pool.Alloc(kBlockBytes);
    }
    for (std::size_t i = kBatch; i-- > 0;) {
      pool.Free(blocks[i]);
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_AllocFreeSameThread)->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

// A burst of blocks wrapped for handoff between bench threads. Storage is global
// (never a bench thread's stack) so ownership can migrate through mailboxes and
// outlive the thread that filled it.
struct Batch {
  void* blocks[kBatch];
};
Batch g_batches[kMaxBenchThreads][2];

// One mailbox per bench thread. A thread publishes its freshly filled batch into its
// right neighbour's mailbox and frees whatever it finds in its own, so in steady
// state every block is freed by a different thread than the one that allocated it.
struct Mailbox {
  std::atomic<Batch*> slot{nullptr};
};
runtime::CacheAligned<Mailbox> g_mailboxes[kMaxBenchThreads];

// Sentinel marking a mailbox whose owner has left the timing loop; a publisher that
// displaces it frees its own batch instead (keeps teardown leak-free).
Batch* const kClosed = reinterpret_cast<Batch*>(std::uintptr_t{1});

void FreeBatch(runtime::PoolAllocator& pool, Batch* batch) {
  for (std::size_t i = 0; i < kBatch; ++i) {
    pool.Free(batch->blocks[i]);
  }
}

// Runs single-threaded before/after each thread-count variant: resets mailboxes and
// reclaims any batch stranded by the shutdown race of the previous variant.
void ResetMailboxes(const benchmark::State&) {
  auto& pool = runtime::PoolAllocator::Instance();
  for (auto& box : g_mailboxes) {
    Batch* left = box.value.slot.exchange(nullptr, std::memory_order_acq_rel);
    if (left != nullptr && left != kClosed) {
      FreeBatch(pool, left);
    }
  }
}

void BM_AllocFreeCrossThread(benchmark::State& state) {
  auto& pool = runtime::PoolAllocator::Instance();
  const int me = state.thread_index();
  std::atomic<Batch*>& inbox = g_mailboxes[me].value.slot;
  std::atomic<Batch*>& outbox = g_mailboxes[(me + 1) % state.threads()].value.slot;
  // Small LIFO of empty buffers this thread currently owns; buffers migrate between
  // threads through the mailboxes, so the bound is the global buffer count.
  Batch* empties[2 * kMaxBenchThreads];
  std::size_t empty_count = 0;
  empties[empty_count++] = &g_batches[me][0];
  empties[empty_count++] = &g_batches[me][1];
  for (auto _ : state) {
    if (empty_count == 0) {
      // Every owned buffer is in flight. Try to adopt one from the inbox; if the
      // neighbours are lagging (or already finished), fall back to a same-thread
      // burst for this iteration rather than blocking — a stalled left neighbour
      // must not deadlock the ring at shutdown.
      Batch* incoming = inbox.exchange(nullptr, std::memory_order_acq_rel);
      if (incoming != nullptr && incoming != kClosed) {
        FreeBatch(pool, incoming);
        empties[empty_count++] = incoming;
      } else {
        void* local[kBatch];
        for (std::size_t i = 0; i < kBatch; ++i) {
          local[i] = pool.Alloc(kBlockBytes);
        }
        for (std::size_t i = kBatch; i-- > 0;) {
          pool.Free(local[i]);
        }
        continue;
      }
    }
    Batch* mine = empties[--empty_count];
    for (std::size_t i = 0; i < kBatch; ++i) {
      mine->blocks[i] = pool.Alloc(kBlockBytes);
    }
    Batch* incoming = inbox.exchange(nullptr, std::memory_order_acq_rel);
    if (incoming != nullptr && incoming != kClosed) {
      FreeBatch(pool, incoming);  // allocated by the left neighbour
      empties[empty_count++] = incoming;
    } else if (incoming == kClosed) {
      inbox.store(kClosed, std::memory_order_release);
    }
    Batch* displaced = outbox.exchange(mine, std::memory_order_acq_rel);
    if (displaced == kClosed) {
      // The neighbour closed its inbox and will never drain it again; only this
      // thread publishes there, so plain stores are race-free from here on.
      outbox.store(kClosed, std::memory_order_release);
      FreeBatch(pool, mine);
      empties[empty_count++] = mine;
    } else if (displaced != nullptr) {
      // Our previous publication was never consumed; free it ourselves.
      FreeBatch(pool, displaced);
      empties[empty_count++] = displaced;
    }
  }
  // Close the inbox and drain whatever a neighbour published meanwhile.
  Batch* tail = inbox.exchange(kClosed, std::memory_order_acq_rel);
  if (tail != nullptr && tail != kClosed) {
    FreeBatch(pool, tail);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_AllocFreeCrossThread)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Setup(ResetMailboxes)
    ->Teardown(ResetMailboxes);

// Reclamation-path probe: OwnsLive + UsableSize per free-set candidate, exactly what
// ScanAndFree pays per entry before any root scanning happens.
void BM_OwnsLiveProbe(benchmark::State& state) {
  auto& pool = runtime::PoolAllocator::Instance();
  void* blocks[kBatch];
  for (std::size_t i = 0; i < kBatch; ++i) {
    blocks[i] = pool.Alloc(kBlockBytes);
  }
  std::size_t cursor = 0;
  for (auto _ : state) {
    void* p = blocks[cursor];
    cursor = (cursor + 1) % kBatch;
    bool live = pool.OwnsLive(p);
    benchmark::DoNotOptimize(live);
    std::size_t usable = pool.UsableSize(p);
    benchmark::DoNotOptimize(usable);
  }
  for (std::size_t i = 0; i < kBatch; ++i) {
    pool.Free(blocks[i]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OwnsLiveProbe)->Threads(1)->Threads(4)->UseRealTime();

}  // namespace
}  // namespace stacktrack

BENCHMARK_MAIN();
