// Wall-clock cost-attribution profiler: span stack discipline, lane
// merging, histogram bucketing, sampling scale-up, the observer-effect
// correction and control-based deflation — all driven through the public
// probe API with hand-fed tick values, so the arithmetic is exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "obs/profiler.h"

namespace dnsguard {
namespace {

using obs::prof::DispatchWindow;
using obs::prof::EdgeReport;
using obs::prof::kHistBuckets;
using obs::prof::kMaxDepth;
using obs::prof::kMaxLanes;
using obs::prof::kStageCount;
using obs::prof::LaneScope;
using obs::prof::profiler;
using obs::prof::Report;
using obs::prof::Stage;
using obs::prof::stage_name;

static_assert(DNSGUARD_PROF_COMPILED_IN == 1,
              "tests build with probes compiled in");

/// Every test runs against the process-global profiler, so the fixture
/// restores a known state: enabled, full sampling, probe-cost model
/// pinned to zero (set *after* enable(), which recalibrates a zero cost)
/// so reported totals equal the ticks fed in.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    profiler.enable();
    profiler.set_probe_cost(0.0, 0.0);
    profiler.set_sampling(1, 1);
    profiler.set_lane(0);
    profiler.set_context(Stage::kRoot);
    profiler.reset();
  }
  void TearDown() override {
    profiler.reset();
    profiler.set_sampling(1, 1);
    profiler.set_context(Stage::kRoot);
    profiler.disable();
  }

  /// Ticks attributed to (parent, stage), undoing the ns conversion.
  static double edge_ticks(const Report& r, Stage parent, Stage stage) {
    for (const EdgeReport& e : r.edges) {
      if (e.parent == parent && e.stage == stage) {
        return e.total_ns / r.ns_per_tick;
      }
    }
    return -1.0;  // edge absent
  }

  static const EdgeReport* find_edge(const Report& r, Stage parent,
                                     Stage stage) {
    for (const EdgeReport& e : r.edges) {
      if (e.parent == parent && e.stage == stage) return &e;
    }
    return nullptr;
  }
};

// --- registry ----------------------------------------------------------------

TEST(ProfilerRegistry, StageNamesAreUniqueAndNamed) {
  std::set<std::string> seen;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const char* name = stage_name(static_cast<Stage>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "unknown") << "stage " << i << " missing a name";
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_STREQ(stage_name(Stage::kCount), "unknown");
}

TEST(ProfilerRegistry, BucketOfLog2Edges) {
  using obs::prof::Profiler;
  EXPECT_EQ(Profiler::bucket_of(0), 0u);
  EXPECT_EQ(Profiler::bucket_of(1), 0u);
  EXPECT_EQ(Profiler::bucket_of(2), 1u);
  EXPECT_EQ(Profiler::bucket_of(3), 1u);
  EXPECT_EQ(Profiler::bucket_of(4), 2u);
  EXPECT_EQ(Profiler::bucket_of(7), 2u);
  EXPECT_EQ(Profiler::bucket_of(8), 3u);
  EXPECT_EQ(Profiler::bucket_of((1ull << 39) - 1), 38u);
  EXPECT_EQ(Profiler::bucket_of(1ull << 39), kHistBuckets - 1);
  // Values past the last bucket saturate instead of indexing out of range.
  EXPECT_EQ(Profiler::bucket_of(1ull << 45), kHistBuckets - 1);
  EXPECT_EQ(Profiler::bucket_of(~0ull), kHistBuckets - 1);
}

// --- span stack --------------------------------------------------------------

TEST_F(ProfilerTest, NestedSpansAttributeToEnclosingParent) {
  ASSERT_TRUE(profiler.span_begin(Stage::kGuardService));
  ASSERT_TRUE(profiler.span_begin(Stage::kGuardDecode));
  profiler.span_end(Stage::kGuardDecode, 100);
  profiler.span_end(Stage::kGuardService, 300);

  const Report r = profiler.report();
  EXPECT_DOUBLE_EQ(edge_ticks(r, Stage::kRoot, Stage::kGuardService), 300.0);
  EXPECT_DOUBLE_EQ(edge_ticks(r, Stage::kGuardService, Stage::kGuardDecode),
                   100.0);
  // The child's time is *inside* the parent's, so root-attributed time is
  // the parent's alone — the non-double-counting invariant root_total_ns
  // relies on.
  EXPECT_DOUBLE_EQ(r.root_total_ns() / r.ns_per_tick, 300.0);
  EXPECT_EQ(r.mismatched_spans, 0u);
  EXPECT_EQ(r.overflow_spans, 0u);
}

TEST_F(ProfilerTest, EmptyStackSpansParentUnderContext) {
  profiler.set_context(Stage::kSimDispatch);
  ASSERT_TRUE(profiler.span_begin(Stage::kCookieHash));
  profiler.span_end(Stage::kCookieHash, 42);
  const Report r = profiler.report();
  EXPECT_DOUBLE_EQ(edge_ticks(r, Stage::kSimDispatch, Stage::kCookieHash),
                   42.0);
}

TEST_F(ProfilerTest, MismatchedCloseIsCountedAndResetsTheLaneStack) {
  ASSERT_TRUE(profiler.span_begin(Stage::kGuardService));
  profiler.span_end(Stage::kGuardDecode, 50);  // does not match the top
  EXPECT_EQ(profiler.mismatched_spans(), 1u);

  // The stack was abandoned: the next span opens at depth 0 and parents
  // under the context, not under the stale kGuardService frame.
  ASSERT_TRUE(profiler.span_begin(Stage::kGuardDecode));
  profiler.span_end(Stage::kGuardDecode, 10);
  const Report r = profiler.report();
  EXPECT_DOUBLE_EQ(edge_ticks(r, Stage::kRoot, Stage::kGuardDecode), 10.0);
  EXPECT_LT(edge_ticks(r, Stage::kGuardService, Stage::kGuardDecode), 0.0);
  EXPECT_EQ(r.mismatched_spans, 1u);

  // Closing on an empty stack is also a mismatch, never a crash.
  profiler.span_end(Stage::kGuardService, 5);
  EXPECT_EQ(profiler.mismatched_spans(), 2u);
}

TEST_F(ProfilerTest, OverflowingSpansAreDroppedNotMisattributed) {
  for (std::size_t i = 0; i < kMaxDepth; ++i) {
    ASSERT_TRUE(profiler.span_begin(Stage::kGuardService));
  }
  EXPECT_FALSE(profiler.span_begin(Stage::kGuardDecode));
  EXPECT_EQ(profiler.overflow_spans(), 1u);
  for (std::size_t i = 0; i < kMaxDepth; ++i) {
    profiler.span_end(Stage::kGuardService, 1);
  }
  const Report r = profiler.report();
  EXPECT_EQ(r.overflow_spans, 1u);
  EXPECT_EQ(r.mismatched_spans, 0u);  // the unwind stayed matched
  const EdgeReport* nested =
      find_edge(r, Stage::kGuardService, Stage::kGuardService);
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->count, kMaxDepth - 1);
}

TEST_F(ProfilerTest, ScopeRecordsOnlyWhileRecording) {
  { DNSGUARD_PROF_SCOPE(Stage::kGuardMint); }
  Report r = profiler.report();
  const EdgeReport* e = find_edge(r, Stage::kRoot, Stage::kGuardMint);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->count, 1u);

  // Outside a sampled block (recording off) a Scope must not even open a
  // span — that is the disarmed single-branch contract.
  profiler.set_recording(false);
  { DNSGUARD_PROF_SCOPE(Stage::kGuardMint); }
  profiler.set_recording(true);
  r = profiler.report();
  e = find_edge(r, Stage::kRoot, Stage::kGuardMint);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->count, 1u);
  EXPECT_EQ(r.mismatched_spans, 0u);
}

TEST_F(ProfilerTest, DisabledProfilerForcesRecordingOff) {
  profiler.disable();
  EXPECT_FALSE(profiler.recording());
  profiler.set_recording(true);  // must not stick while disabled
  EXPECT_FALSE(profiler.recording());
  { DNSGUARD_PROF_SCOPE(Stage::kGuardVerify); }
  profiler.enable();
  const Report r = profiler.report();
  EXPECT_EQ(find_edge(r, Stage::kRoot, Stage::kGuardVerify), nullptr);
}

// --- lanes -------------------------------------------------------------------

TEST_F(ProfilerTest, LanesMergeAtReportTime) {
  profiler.record(Stage::kRoot, Stage::kGuardRl1, 100);
  profiler.set_lane(3);
  profiler.record(Stage::kRoot, Stage::kGuardRl1, 50);
  profiler.set_lane(0);

  const Report r = profiler.report();
  const EdgeReport* e = find_edge(r, Stage::kRoot, Stage::kGuardRl1);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->count, 2u);
  EXPECT_DOUBLE_EQ(e->total_ns / r.ns_per_tick, 150.0);
  EXPECT_DOUBLE_EQ(e->min_ns / r.ns_per_tick, 50.0);
  EXPECT_DOUBLE_EQ(e->max_ns / r.ns_per_tick, 100.0);
}

TEST_F(ProfilerTest, LaneStacksAreIndependent) {
  ASSERT_TRUE(profiler.span_begin(Stage::kGuardService));
  {
    LaneScope shard(5);
    // The shard lane's stack is empty, so its span parents under the
    // context even though lane 0 has kGuardService open.
    ASSERT_TRUE(profiler.span_begin(Stage::kGuardVerify));
    profiler.span_end(Stage::kGuardVerify, 20);
  }
  EXPECT_EQ(profiler.lane(), 0u);
  profiler.span_end(Stage::kGuardService, 80);

  const Report r = profiler.report();
  EXPECT_DOUBLE_EQ(edge_ticks(r, Stage::kRoot, Stage::kGuardVerify), 20.0);
  EXPECT_DOUBLE_EQ(edge_ticks(r, Stage::kRoot, Stage::kGuardService), 80.0);
  EXPECT_EQ(r.mismatched_spans, 0u);
}

TEST_F(ProfilerTest, OutOfRangeLaneClampsToZero) {
  profiler.set_lane(kMaxLanes);
  EXPECT_EQ(profiler.lane(), 0u);
  profiler.set_lane(kMaxLanes - 1);
  EXPECT_EQ(profiler.lane(), kMaxLanes - 1);
  profiler.set_lane(0);
}

// --- histogram ---------------------------------------------------------------

TEST_F(ProfilerTest, HistogramLandsSamplesInLog2Buckets) {
  profiler.record(Stage::kRoot, Stage::kGuardRl2, 0);    // bucket 0
  profiler.record(Stage::kRoot, Stage::kGuardRl2, 1);    // bucket 0
  profiler.record(Stage::kRoot, Stage::kGuardRl2, 2);    // bucket 1
  profiler.record(Stage::kRoot, Stage::kGuardRl2, 100);  // bucket 6
  const Report r = profiler.report();
  const EdgeReport* e = find_edge(r, Stage::kRoot, Stage::kGuardRl2);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->hist[0], 2u);
  EXPECT_EQ(e->hist[1], 1u);
  EXPECT_EQ(e->hist[6], 1u);
  std::uint64_t total = 0;
  for (std::uint64_t b : e->hist) total += b;
  EXPECT_EQ(total, e->count);
}

// --- sampling ----------------------------------------------------------------

TEST_F(ProfilerTest, SetSamplingClampsDegenerateValues) {
  profiler.set_sampling(0, 0);
  EXPECT_EQ(profiler.sample_stride(), 1u);
  EXPECT_EQ(profiler.sample_block(), 1u);
  profiler.set_sampling(4, 9);  // block cannot exceed the stride
  EXPECT_EQ(profiler.sample_stride(), 4u);
  EXPECT_EQ(profiler.sample_block(), 4u);
}

TEST_F(ProfilerTest, SampledReportScalesCountsTotalsAndHistograms) {
  profiler.set_sampling(10, 2);  // 1-in-5 duty: reports scale by 5
  for (int i = 0; i < 4; ++i) {
    profiler.record(Stage::kRoot, Stage::kGuardVerify, 100);
  }
  const Report r = profiler.report();
  EXPECT_EQ(r.sample_stride, 10u);
  EXPECT_EQ(r.sample_block, 2u);
  const EdgeReport* e = find_edge(r, Stage::kRoot, Stage::kGuardVerify);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->count, 20u);
  EXPECT_DOUBLE_EQ(e->total_ns / r.ns_per_tick, 2000.0);
  EXPECT_EQ(e->hist[6], 20u);  // scaled with the counts
  // Extrema are observations, not rates — they stay raw.
  EXPECT_DOUBLE_EQ(e->min_ns / r.ns_per_tick, 100.0);
  EXPECT_DOUBLE_EQ(e->max_ns / r.ns_per_tick, 100.0);
}

TEST_F(ProfilerTest, DispatchWindowSamplesAndTimesControlBlocks) {
  profiler.set_sampling(4, 1);
  profiler.reset();
  {
    DispatchWindow window;
    EXPECT_EQ(profiler.context(), Stage::kSimDispatch);
    // Two full strides. Per stride: phase 0 is the sampled block (one
    // dispatch record), phases 2..3 are the control block, timed as one
    // slice covering both events.
    for (int i = 0; i < 8; ++i) {
      window.tick();
      if (i % 4 == 0) {
        EXPECT_FALSE(profiler.recording()) << "event " << i;
      }
    }
  }
  EXPECT_EQ(profiler.context(), Stage::kRoot);
  EXPECT_TRUE(profiler.recording());

  const Report r = profiler.report();
  const EdgeReport* e = find_edge(r, Stage::kRoot, Stage::kSimDispatch);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->count, 8u);  // 2 raw records scaled by stride/block = 4
  EXPECT_EQ(r.control_count, 4u);
  EXPECT_GT(r.control_ns_per_op, 0.0);
}

// --- observer-effect correction ---------------------------------------------

TEST_F(ProfilerTest, ProbeCostCorrectionSubtractsDescendantProbes) {
  // One guard.service span (1000 ticks) containing two guard.decode spans
  // (100 ticks each). With probe_in = 5 and probe_total = 50:
  //   D(decode)  = 0 (no children)
  //   D(service) = 2 spans/span * (1 + 0) = 2
  //   service: 1000 - 1*(5 + 2*50) = 895
  //   decode:   200 - 2*(5 + 0*50) = 190
  profiler.set_probe_cost(5.0, 50.0);
  profiler.record(Stage::kRoot, Stage::kGuardService, 1000);
  profiler.record(Stage::kGuardService, Stage::kGuardDecode, 100);
  profiler.record(Stage::kGuardService, Stage::kGuardDecode, 100);

  const Report r = profiler.report();
  EXPECT_NEAR(edge_ticks(r, Stage::kRoot, Stage::kGuardService), 895.0, 1e-9);
  EXPECT_NEAR(edge_ticks(r, Stage::kGuardService, Stage::kGuardDecode), 190.0,
              1e-9);
}

TEST_F(ProfilerTest, ProbeCostCorrectionNeverGoesNegative) {
  profiler.set_probe_cost(1000.0, 1000.0);
  profiler.record(Stage::kRoot, Stage::kGuardMint, 10);
  const Report r = profiler.report();
  EXPECT_DOUBLE_EQ(edge_ticks(r, Stage::kRoot, Stage::kGuardMint), 0.0);
}

TEST_F(ProfilerTest, ProbeCostCorrectionSurvivesRecordedCycles) {
  // Hand-fed record() data can produce parent cycles real nesting cannot;
  // the descendant-count DFS must terminate, not recurse forever.
  profiler.set_probe_cost(1.0, 1.0);
  profiler.record(Stage::kGuardRl1, Stage::kGuardRl2, 10);
  profiler.record(Stage::kGuardRl2, Stage::kGuardRl1, 10);
  const Report r = profiler.report();
  EXPECT_EQ(r.edges.size(), 2u);
}

// --- control deflation -------------------------------------------------------

TEST_F(ProfilerTest, ControlSlicesDeflateOverAttributedEdges) {
  // Sampled dispatch slices claim 800 ticks/event; the control block says
  // disarmed events really cost 400 — so every edge halves, preserving
  // stage proportions while the total drops to the probe-free cost.
  for (int i = 0; i < 10; ++i) {
    profiler.record(Stage::kRoot, Stage::kSimDispatch, 800);
    profiler.record(Stage::kSimDispatch, Stage::kGuardService, 600);
  }
  profiler.record_control(4000, 10);

  const Report r = profiler.report();
  EXPECT_EQ(r.control_count, 10u);
  EXPECT_NEAR(r.control_ns_per_op / r.ns_per_tick, 400.0, 1e-9);
  EXPECT_NEAR(r.deflation, 0.5, 1e-9);
  EXPECT_NEAR(edge_ticks(r, Stage::kRoot, Stage::kSimDispatch), 4000.0, 1e-6);
  EXPECT_NEAR(edge_ticks(r, Stage::kSimDispatch, Stage::kGuardService),
              3000.0, 1e-6);
}

TEST_F(ProfilerTest, ControlNeverInflatesACheapProfile) {
  // Control more expensive than the sampled slices (e.g. a steal burst
  // hit the armed blocks instead): deflation clamps at 1 — attribution is
  // corrected downward only, never invented upward.
  for (int i = 0; i < 10; ++i) {
    profiler.record(Stage::kRoot, Stage::kSimDispatch, 400);
  }
  profiler.record_control(8000, 10);
  const Report r = profiler.report();
  EXPECT_DOUBLE_EQ(r.deflation, 1.0);
  EXPECT_NEAR(edge_ticks(r, Stage::kRoot, Stage::kSimDispatch), 4000.0, 1e-6);
}

TEST_F(ProfilerTest, ControlEstimatorWinsorizesStealBursts) {
  // Nine honest control blocks at 100 ticks/event plus one block that a
  // (simulated) hypervisor steal burst stretched to 10000/event. The
  // winsorized mean clamps the outlier at 3x the median:
  //   (9*100 + 300) / 10 = 120 ticks/event
  // (a plain mean would report 1090 and wreck the deflation anchor).
  for (int i = 0; i < 9; ++i) profiler.record_control(1000, 10);
  profiler.record_control(100000, 10);
  const Report r = profiler.report();
  EXPECT_NEAR(r.control_ns_per_op / r.ns_per_tick, 120.0, 1e-9);
}

// --- reporting ---------------------------------------------------------------

TEST_F(ProfilerTest, ResetClearsCellsStacksAndQualityCounters) {
  profiler.record(Stage::kRoot, Stage::kGuardService, 100);
  profiler.record_control(1000, 10);
  profiler.span_end(Stage::kGuardDecode, 5);  // mismatch on empty stack
  ASSERT_EQ(profiler.mismatched_spans(), 1u);

  profiler.reset();
  const Report r = profiler.report();
  EXPECT_TRUE(r.edges.empty());
  EXPECT_EQ(r.mismatched_spans, 0u);
  EXPECT_EQ(r.control_count, 0u);
  EXPECT_EQ(profiler.control_count(), 0u);
}

TEST_F(ProfilerTest, ReportJsonCarriesCoverageAndStageShares) {
  profiler.record(Stage::kRoot, Stage::kGuardService, 100);
  const std::string with_wall = profiler.report_json(1000.0);
  EXPECT_NE(with_wall.find("\"root_share\""), std::string::npos);
  EXPECT_NE(with_wall.find("\"share\""), std::string::npos);
  EXPECT_NE(with_wall.find("\"deflation\""), std::string::npos);
  EXPECT_NE(with_wall.find("\"stage\": \"guard.service\""),
            std::string::npos);
  EXPECT_NE(with_wall.find("\"hist_ns\""), std::string::npos);

  // Without a wall-time denominator there is no share to report.
  const std::string no_wall = profiler.report_json(0.0);
  EXPECT_EQ(no_wall.find("\"root_share\""), std::string::npos);
  EXPECT_NE(no_wall.find("\"stages\""), std::string::npos);
}

}  // namespace
}  // namespace dnsguard
