// Per-transaction and per-thread STM statistics shared by both software engines.
//
// TxStats lives inside each engine's transaction descriptor and tracks the running
// transaction's access profile. StmTxCounters is a thread-local accumulator of
// engine-internal events (lock waits, priority handoffs, where aborts were detected)
// that the split engine folds into core::Stats at segment boundaries via
// htm::ConsumeStmCounters() — the engines themselves never see core::Stats, keeping
// the htm → runtime layering intact.
#ifndef STACKTRACK_HTM_STM_STATS_H_
#define STACKTRACK_HTM_STM_STATS_H_

#include <cstdint>

namespace stacktrack::htm {

struct TxStats {
  uint64_t loads = 0;          // TxLoadWord calls since the thread's first transaction
  uint64_t stores = 0;         // TxStoreWord calls, ditto
  uint64_t max_footprint = 0;  // largest read+write log population seen at commit/abort
};

// Engine-internal event counts since the last ConsumeStmCounters() drain.
struct StmTxCounters {
  uint64_t orec_waits = 0;          // spins against a held orec/stripe before resolution
  uint64_t priority_handoffs = 0;   // conflicts resolved by the priority token (2PL):
                                    // a younger holder was doomed in our favor
  uint64_t eager_conflict_aborts = 0;   // conflict aborts raised at the access site
  uint64_t commit_conflict_aborts = 0;  // conflict aborts raised at commit time
};

namespace internal {
constinit inline thread_local StmTxCounters tls_stm_counters;
}  // namespace internal

inline StmTxCounters& CurrentStmCounters() { return internal::tls_stm_counters; }

// Returns the counters accumulated since the previous call and zeroes them.
inline StmTxCounters ConsumeStmCounters() {
  StmTxCounters out = internal::tls_stm_counters;
  internal::tls_stm_counters = StmTxCounters{};
  return out;
}

}  // namespace stacktrack::htm

#endif  // STACKTRACK_HTM_STM_STATS_H_
