// Split-length predictor support (DESIGN.md §5e).
//
// The policy itself is the paper's §5.3 streak rule and lives in StContext's
// PredictorOnAbort/OnCommit (core/thread_context.cc): consec_threshold consecutive
// capacity aborts shrink a per-(op, segment) cell's limit by one, and as many
// consecutive commits grow it by one.
//
// This header holds what surrounds that rule: the table geometry, the packed
// argument of kPredictorGrow/Shrink trace records, and the offline warm start.
// PredictorWarmTable is a process-wide per-(op, segment) seed table, filled from a
// tools/predictor_tune output or a PredictorTableToJson dump through
// ST_PREDICTOR_WARM or StConfig::warm_start_path. StContext seeds a cell from it on
// first touch.
#ifndef STACKTRACK_CORE_PREDICTOR_H_
#define STACKTRACK_CORE_PREDICTOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace stacktrack::core {

// Predictor table geometry (shared with StContext's per-thread table).
inline constexpr uint32_t kMaxOps = 12;       // distinct op ids per context
inline constexpr uint32_t kMaxSegments = 128; // predictor cells per op

// One policy; perfbench's provenance block reads these names.
enum class PredictorKind : uint8_t { kStreak };
inline PredictorKind ActivePredictor() { return PredictorKind::kStreak; }
inline const char* PredictorName(PredictorKind) { return "streak"; }

// What drove a limit move, as packed into trace records. The values are the trace
// encoding: kCommit tags growth, kCapacity tags a shrink.
enum class CauseFamily : uint8_t {
  kCommit = 0,
  kCapacity = 2,
};

// ---- Trace payload packing -------------------------------------------------------

// kPredictorGrow/Shrink records carry the full decision context in one arg word so
// offline tools (tools/predictor_tune) can attribute limit moves to cells:
//   bits  0..15  new limit
//   bits 16..27  segment index
//   bits 28..31  op id
//   bits 32..33  CauseFamily that drove the move (kCommit for growth)
constexpr uint64_t PredictorTraceArg(uint32_t limit, uint32_t op, uint32_t segment,
                                     CauseFamily family) {
  return (limit & 0xffffu) | (static_cast<uint64_t>(segment & 0xfffu) << 16) |
         (static_cast<uint64_t>(op & 0xfu) << 28) |
         (static_cast<uint64_t>(family) << 32);
}
constexpr uint32_t PredictorTraceLimit(uint64_t arg) { return arg & 0xffffu; }
constexpr uint32_t PredictorTraceSegment(uint64_t arg) { return (arg >> 16) & 0xfffu; }
constexpr uint32_t PredictorTraceOp(uint64_t arg) { return (arg >> 28) & 0xfu; }
constexpr CauseFamily PredictorTraceFamily(uint64_t arg) {
  return static_cast<CauseFamily>((arg >> 32) & 0x3u);
}

// ---- Warm-start table ------------------------------------------------------------

// Process-wide per-(op, segment) seed limits. Lock-free: readers are on the segment
// hot path (one relaxed flag load when the table is empty); writers are the load at
// startup and Reset().
class PredictorWarmTable {
 public:
  static PredictorWarmTable& Instance();

  // 0 = no seed for this cell.
  uint16_t Seed(uint32_t op, uint32_t segment) const {
    if (!any_.load(std::memory_order_relaxed)) {
      return 0;
    }
    return cells_[op][segment].load(std::memory_order_relaxed);
  }

  // Accepts either tools/predictor_tune output ({"cells":[{"op","segment","limit"}]})
  // or a PredictorTableToJson dump ({"threads":[{"tid","cells":[...]}]}, merged with
  // the per-cell median across threads). Returns false and fills *error on parse
  // failure; a successful load marks the table loaded().
  bool LoadFromJson(std::string_view json, std::string* error);
  bool LoadFromFile(const std::string& path, std::string* error);

  void Reset();  // tests / bench slices: drop all seeds and the loaded mark

  bool loaded() const { return loaded_.load(std::memory_order_acquire); }
  std::size_t CountSeeds() const;

 private:
  PredictorWarmTable() = default;
  std::atomic<uint16_t> cells_[kMaxOps][kMaxSegments] = {};
  std::atomic<bool> any_{false};
  std::atomic<bool> loaded_{false};
};

}  // namespace stacktrack::core

#endif  // STACKTRACK_CORE_PREDICTOR_H_
