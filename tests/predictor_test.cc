// Split-length predictor tests (DESIGN.md §5e): the one policy's provenance name,
// lazy cell init, which abort causes drive the §5.3 streak rule, min/max clamping,
// the offline warm start (a loaded table seeds cells on first touch and nothing flows
// back into it), the PredictorTableToJson round trip, and the packed cause tag on
// kPredictorGrow/Shrink trace records. Split-engine mechanics of the same rule are
// in tests/context_test.cc.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/predictor.h"
#include "core/split_engine.h"
#include "core/stats_export.h"
#include "runtime/machine_model.h"
#include "runtime/trace.h"
#include "smr/stacktrack_smr.h"

namespace stacktrack::core {
namespace {

class PredictorTest : public ::testing::Test {
 protected:
  void SetUp() override { PredictorWarmTable::Instance().Reset(); }
  void TearDown() override {
    PredictorWarmTable::Instance().Reset();
    runtime::MachineModel::Instance().Configure(runtime::MachineConfig{});
  }

  runtime::ThreadScope scope_;
};

StConfig FastPathConfig(uint32_t initial) {
  StConfig config;
  config.initial_split_limit = initial;
  config.slow_after_fails = 1u << 30;  // keep every case on the fast path
  return config;
}

// Arms one op and returns the limit the (op, 0) cell held right after first touch —
// i.e. the lazily-initialized / warm-seeded value, before the op's own commit gets a
// chance to move it.
uint32_t TouchAndPeek(StContext& ctx, uint32_t op_id) {
  ST_OP_BEGIN(ctx, op_id);
  const uint32_t seeded = ctx.predictor_limit(op_id, 0);
  ST_OP_END(ctx);
  return seeded;
}

// Runs one op of `blocks` basic blocks, aborting the current segment with `cause`
// until `aborts_left` hits zero (the ARM loop then retries until the segment runs
// through). Loads nothing, so the only aborts are the synthesized ones.
void RunOp(StContext& ctx, uint32_t op_id, int blocks, int aborts,
           htm::AbortCause cause) {
  volatile int aborts_left = aborts;
  ST_OP_BEGIN(ctx, op_id);
  if (aborts_left > 0 && !ctx.in_slow_segment()) {
    aborts_left = aborts_left - 1;
    htm::TxAbort(cause);
  }
  for (int bb = 0; bb < blocks; ++bb) {
    ST_CHECKPOINT(ctx);
    if (aborts_left > 0 && !ctx.in_slow_segment()) {
      aborts_left = aborts_left - 1;
      htm::TxAbort(cause);
    }
  }
  ST_OP_END(ctx);
}

TEST_F(PredictorTest, ProvenanceNamesTheStreakRule) {
  EXPECT_EQ(ActivePredictor(), PredictorKind::kStreak);
  EXPECT_STREQ(PredictorName(ActivePredictor()), "streak");
}

TEST_F(PredictorTest, LazyCellInit) {
  smr::StackTrackSmr::Domain domain(FastPathConfig(37));
  StContext& ctx = domain.AcquireHandle();
  EXPECT_EQ(ctx.predictor_limit(4, 0), 0u);
  EXPECT_FALSE(ctx.predictor_cell_initialized(4, 0));
  EXPECT_EQ(TouchAndPeek(ctx, 4), 37u);
  EXPECT_TRUE(ctx.predictor_cell_initialized(4, 0));
  // Neighboring cells stay untouched.
  EXPECT_FALSE(ctx.predictor_cell_initialized(4, 1));
}

// Only capacity aborts count toward the shrink streak (paper §5.3): conflict aborts,
// including the 2PL engine's reader/writer refinements, are counted in the Fig. 3
// taxonomy but never move the limit.
TEST_F(PredictorTest, ConflictAbortsDoNotShrinkIncludingTwoPlRefinements) {
  const htm::AbortCause causes[] = {htm::AbortCause::kConflict,
                                    htm::AbortCause::kConflictReader,
                                    htm::AbortCause::kConflictWriter};
  StConfig config = FastPathConfig(40);
  config.max_split_limit = 40;  // pin commit growth so any move is a shrink
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();
  uint32_t op_id = 1;
  for (htm::AbortCause cause : causes) {
    RunOp(ctx, op_id, 1, 6, cause);  // past one threshold's worth of aborts
    EXPECT_EQ(ctx.predictor_limit(op_id, 0), 40u) << htm::AbortCauseName(cause);
    ++op_id;
  }
  EXPECT_EQ(ctx.stats.aborts_conflict, 18u);
  EXPECT_EQ(ctx.stats.aborts_conflict_reader, 6u);
  EXPECT_EQ(ctx.stats.aborts_conflict_writer, 6u);
  EXPECT_EQ(ctx.stats.predictor_decreases, 0u);
}

TEST_F(PredictorTest, ExplicitAndSpuriousAbortsAreIgnored) {
  StConfig config = FastPathConfig(40);
  config.max_split_limit = 40;  // pin ordinary commit growth so any move is a shrink
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();
  RunOp(ctx, 1, 1, 6, htm::AbortCause::kExplicit);
  RunOp(ctx, 1, 1, 6, htm::AbortCause::kOther);
  EXPECT_EQ(ctx.predictor_limit(1, 0), 40u);
  EXPECT_EQ(ctx.stats.predictor_decreases, 0u);
  EXPECT_EQ(ctx.stats.predictor_increases, 0u);
  EXPECT_EQ(ctx.stats.aborts_explicit, 6u);
  EXPECT_EQ(ctx.stats.aborts_other, 6u);
}

TEST_F(PredictorTest, ShrinkClampsAtMinLimit) {
  StConfig config = FastPathConfig(4);
  config.min_split_limit = 3;
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();
  // Three full capacity streaks: the first shrinks 4 -> 3, the next two hit the floor.
  RunOp(ctx, 1, 1, 15, htm::AbortCause::kCapacity);
  EXPECT_EQ(ctx.predictor_limit(1, 0), 3u);
  EXPECT_EQ(ctx.stats.predictor_decreases, 1u);
}

TEST_F(PredictorTest, GrowthClampsAtMaxLimit) {
  StConfig config = FastPathConfig(40);
  config.max_split_limit = 42;
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();
  for (int op = 0; op < 30; ++op) {  // six commit streaks, two of them below the cap
    RunOp(ctx, 1, 1, 0, htm::AbortCause::kNone);
  }
  EXPECT_EQ(ctx.predictor_limit(1, 0), 42u);
  EXPECT_EQ(ctx.stats.predictor_increases, 2u);
}

// Offline warm start under the streak rule: a loaded table seeds the first touch of a
// cell in every context and thread, and the table is read-only afterwards — what a
// context learns never flows back into it.
TEST_F(PredictorTest, WarmStartInheritanceAcrossContextsAndThreads) {
  PredictorWarmTable& table = PredictorWarmTable::Instance();
  std::string error;
  ASSERT_TRUE(table.LoadFromJson(R"({"cells": [{"op": 3, "segment": 0, "limit": 30}]})",
                                 &error))
      << error;
  ASSERT_EQ(table.CountSeeds(), 1u);

  {
    smr::StackTrackSmr::Domain domain(FastPathConfig(40));
    StContext& ctx = domain.AcquireHandle();
    EXPECT_EQ(TouchAndPeek(ctx, 3), 30u);  // seeded, not the initial 40
    EXPECT_GT(ctx.stats.predictor_warm_seeds, 0u);
    RunOp(ctx, 3, 1, 5, htm::AbortCause::kCapacity);  // one streak: 30 -> 29
    ASSERT_EQ(ctx.predictor_limit(3, 0), 29u);
    RunOp(ctx, 4, 1, 0, htm::AbortCause::kNone);      // an unseeded cell, learned here
  }  // destroying the context publishes nothing
  EXPECT_EQ(table.CountSeeds(), 1u);
  EXPECT_EQ(table.Seed(3, 0), 30u);
  EXPECT_EQ(table.Seed(4, 0), 0u);

  // Same thread, fresh context: first touch sees the loaded seed again.
  smr::StackTrackSmr::Domain domain(FastPathConfig(40));
  StContext& ctx = domain.AcquireHandle();
  EXPECT_EQ(TouchAndPeek(ctx, 3), 30u);
  EXPECT_EQ(TouchAndPeek(ctx, 4), 40u);

  // A thread registering later is seeded too.
  uint32_t seen = 0;
  std::thread worker([&domain, &seen] {
    runtime::ThreadScope worker_scope;
    StContext& worker_ctx = domain.AcquireHandle();
    seen = TouchAndPeek(worker_ctx, 3);
  });
  worker.join();
  EXPECT_EQ(seen, 30u);
  EXPECT_EQ(table.CountSeeds(), 1u);
}

// PredictorTableToJson -> StConfig::warm_start_path round trip. The dump of a live
// table, written to disk and loaded through the config hook (LoadFromFile ->
// LoadFromJson), must seed a fresh context with exactly the dumped limits.
TEST_F(PredictorTest, DumpToWarmStartRoundTrip) {
  std::string dump;
  {
    StConfig config;
    config.initial_split_limit = 21;
    smr::StackTrackSmr::Domain domain(config);
    StContext& ctx = domain.AcquireHandle();
    RunOp(ctx, 5, 1, 0, htm::AbortCause::kNone);
    RunOp(ctx, 6, 1, 0, htm::AbortCause::kNone);
    dump = PredictorTableToJson();  // while the context is still registered
  }
  const std::string path = ::testing::TempDir() + "/predictor_roundtrip.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(dump.c_str(), f);
  std::fclose(f);

  PredictorWarmTable::Instance().Reset();
  StConfig config;
  config.initial_split_limit = 50;
  config.warm_start_path = path;
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();
  // Seeded from the dump (21), not re-derived from this config's initial 50.
  EXPECT_EQ(TouchAndPeek(ctx, 5), 21u);
  EXPECT_EQ(TouchAndPeek(ctx, 6), 21u);
  EXPECT_GE(ctx.stats.predictor_warm_seeds, 2u);
  // Untouched cells stay unseeded-and-uninitialized.
  EXPECT_FALSE(ctx.predictor_cell_initialized(7, 0));
}

// Regression: cells whose limit legitimately reached a min_split_limit of 0 used to
// be silently skipped by the dump (limit == 0 doubled as "uninitialized") and
// re-initialized on the next touch. Both halves are fixed by the explicit first-touch
// marker. Loading such a dump leaves the 0 cell unseeded: the warm table reads 0 as
// "no seed".
TEST_F(PredictorTest, DumpKeepsCellsAtZeroMinLimitAndNoReinit) {
  StConfig config;
  config.initial_split_limit = 1;
  config.min_split_limit = 0;
  // Threshold 3: the abort streak below shrinks exactly once, and the two commits
  // this test performs afterwards never complete a growth streak.
  config.consec_threshold = 3;
  config.slow_after_fails = 1u << 30;
  smr::StackTrackSmr::Domain domain(config);
  StContext& ctx = domain.AcquireHandle();
  RunOp(ctx, 8, 1, 3, htm::AbortCause::kCapacity);  // 1 -> 0
  ASSERT_EQ(ctx.predictor_limit(8, 0), 0u);
  ASSERT_TRUE(ctx.predictor_cell_initialized(8, 0));

  const std::string dump = PredictorTableToJson();
  minijson::Value doc;
  ASSERT_TRUE(minijson::Parse(dump, &doc));
  const minijson::Value* threads = doc.Find("threads");
  ASSERT_NE(threads, nullptr);
  bool found = false;
  for (const minijson::Value& thread : threads->array) {
    const minijson::Value* cells = thread.Find("cells");
    ASSERT_NE(cells, nullptr);
    for (const minijson::Value& cell : cells->array) {
      if (cell.Find("op")->AsU64() == 8 && cell.Find("segment")->AsU64() == 0) {
        found = true;
        EXPECT_EQ(cell.Find("limit")->AsU64(), 0u);
      }
    }
  }
  EXPECT_TRUE(found) << "limit-0 cell missing from the dump";

  std::string error;
  ASSERT_TRUE(PredictorWarmTable::Instance().LoadFromJson(dump, &error)) << error;
  EXPECT_TRUE(PredictorWarmTable::Instance().loaded());
  EXPECT_EQ(PredictorWarmTable::Instance().Seed(8, 0), 0u);

  // The learned 0 survives the next touch instead of re-initializing to 1.
  RunOp(ctx, 8, 1, 0, htm::AbortCause::kNone);
  EXPECT_EQ(ctx.predictor_limit(8, 0), 0u);
}

#if defined(STACKTRACK_TRACE_ENABLED)
TEST_F(PredictorTest, TraceRecordsCarryCauseTagAndCellCoordinates) {
  namespace trace = runtime::trace;
  smr::StackTrackSmr::Domain domain(FastPathConfig(40));
  StContext& ctx = domain.AcquireHandle();

  trace::ResetAll();
  trace::Arm(true);
  RunOp(ctx, 2, 1, 5, htm::AbortCause::kCapacity);  // one capacity streak: 40 -> 39
  for (int op = 0; op < 10; ++op) {                 // with the op above: 11 commits
    RunOp(ctx, 2, 1, 0, htm::AbortCause::kNone);
  }
  trace::Arm(false);

  int shrinks = 0;
  std::vector<uint32_t> grown_to;
  for (const trace::MergedRecord& r : trace::CollectMerged()) {
    if (r.event != trace::Event::kPredictorShrink && r.event != trace::Event::kPredictorGrow) {
      continue;
    }
    EXPECT_EQ(PredictorTraceOp(r.arg), 2u);
    EXPECT_EQ(PredictorTraceSegment(r.arg), 0u);
    if (r.event == trace::Event::kPredictorShrink) {
      ++shrinks;
      EXPECT_EQ(PredictorTraceFamily(r.arg), CauseFamily::kCapacity);
      EXPECT_EQ(PredictorTraceLimit(r.arg), 39u);
    } else {
      EXPECT_EQ(PredictorTraceFamily(r.arg), CauseFamily::kCommit);
      grown_to.push_back(PredictorTraceLimit(r.arg));
    }
  }
  EXPECT_EQ(shrinks, 1);
  EXPECT_EQ(grown_to, (std::vector<uint32_t>{40, 41}));
}
#endif  // STACKTRACK_TRACE_ENABLED

}  // namespace
}  // namespace stacktrack::core
