// Staged reclamation pipeline.
//
// Every reclamation entry point (threshold scans from OpEnd/Free, FlushFrees drains,
// deferred-list adoption, exit handoff) funnels through one engine with fixed stages:
//
//   ingest    adopt a batch of globally deferred candidates into the local free set
//   verdict   collect every other registered thread's roots once into a sorted table
//             (the paper's §5.2 hashed scan), then probe it by range per candidate
//   release   batch-quarantine the dead shard, then batch-return it to the pool
//   relieve   back-pressure: spill survivors past the high-water mark, adapt the
//             scan trigger
//   observe   watchdog tick (stalled-thread detection)
//
// The root table is private to one round. Each thread's roots are collected under
// Algorithm 1's splits/oper consistency protocol (CollectThreadRoots,
// core/free_proc.h). The reclaimer's own thread is skipped: its operation is over, so
// roots still in its frames are dead by contract.
//
// An INCOMPLETE table (a thread hit the collection retry cap, or an overflowed
// reference set could not be enumerated) frees NOTHING: the table is a proof of
// absence, and a table missing even one thread's roots cannot prove any candidate
// unreferenced.
#ifndef STACKTRACK_CORE_RECLAIM_ENGINE_H_
#define STACKTRACK_CORE_RECLAIM_ENGINE_H_

#include "core/thread_context.h"

namespace stacktrack::core {

// The pipeline driver. Stateless: all per-reclaimer state lives on the StContext.
class ReclaimEngine {
 public:
  // One reclamation round over the reclaimer's free set (see stage list above).
  // Owner-thread only; distinct reclaimers may run concurrently.
  static void Run(StContext& reclaimer);

  // Exit handoff: drain the local set and the global deferred list as far as
  // liveness allows, then hand survivors to the deferred list. Called from the
  // thread-registry exit hook and ~StContext.
  static void DrainOnExit(StContext& ctx);
};

}  // namespace stacktrack::core

#endif  // STACKTRACK_CORE_RECLAIM_ENGINE_H_
