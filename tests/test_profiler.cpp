// Wall-clock cost-attribution profiler: span stack discipline, histogram
// bucketing, the dispatch loop's event sampling and scale-up, and
// wall-time deflation — all driven through the public probe API with
// hand-fed tick values, so the arithmetic is exact.
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
using obs::prof::kSampleBlock;
using obs::prof::kSampleStride;
using obs::prof::kStageCount;
using obs::prof::profiler;
using obs::prof::Report;
using obs::prof::Stage;
using obs::prof::stage_name;

static_assert(DNSGUARD_PROF_COMPILED_IN == 1,
              "tests build with probes compiled in");

/// Every test runs against the process-global profiler, so the fixture
/// restores a known state: enabled, no dispatch loop counted (scale 1),
/// so reported totals equal the ticks fed in.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    profiler.enable();
    profiler.set_context(Stage::kRoot);
    profiler.reset();
  }
  void TearDown() override {
    profiler.reset();
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

// --- histogram ---------------------------------------------------------------

TEST_F(ProfilerTest, HistogramLandsSamplesInLog2Buckets) {
  profiler.record(Stage::kRoot, Stage::kGuardRl2, 100);  // bucket 6
  profiler.record(Stage::kRoot, Stage::kGuardRl2, 2);    // bucket 1
  profiler.record(Stage::kRoot, Stage::kGuardRl2, 1);    // bucket 0
  profiler.record(Stage::kRoot, Stage::kGuardRl2, 0);    // bucket 0
  const Report r = profiler.report();
  const EdgeReport* e = find_edge(r, Stage::kRoot, Stage::kGuardRl2);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->hist[0], 2u);
  EXPECT_EQ(e->hist[1], 1u);
  EXPECT_EQ(e->hist[6], 1u);
  std::uint64_t total = 0;
  for (std::uint64_t b : e->hist) total += b;
  EXPECT_EQ(total, e->count);
  EXPECT_DOUBLE_EQ(e->total_ns / r.ns_per_tick, 103.0);
  EXPECT_DOUBLE_EQ(e->min_ns / r.ns_per_tick, 0.0);
  EXPECT_DOUBLE_EQ(e->max_ns / r.ns_per_tick, 100.0);
}

// --- sampling ----------------------------------------------------------------

TEST_F(ProfilerTest, SampledReportScalesCountsTotalsAndHistograms) {
  profiler.add_events(10, 2);  // 1-in-5 duty: reports scale by 5
  for (int i = 0; i < 4; ++i) {
    profiler.record(Stage::kRoot, Stage::kGuardVerify, 100);
  }
  const Report r = profiler.report();
  EXPECT_EQ(r.events, 10u);
  EXPECT_EQ(r.sampled_events, 2u);
  const EdgeReport* e = find_edge(r, Stage::kRoot, Stage::kGuardVerify);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->count, 20u);
  EXPECT_DOUBLE_EQ(e->total_ns / r.ns_per_tick, 2000.0);
  EXPECT_EQ(e->hist[6], 20u);  // scaled with the counts
  // Extrema are observations, not rates — they stay raw.
  EXPECT_DOUBLE_EQ(e->min_ns / r.ns_per_tick, 100.0);
  EXPECT_DOUBLE_EQ(e->max_ns / r.ns_per_tick, 100.0);
}

TEST_F(ProfilerTest, DispatchWindowArmsTheFirstBlockOfEachStride) {
  constexpr std::uint64_t kEvents = 2 * kSampleStride + 3;
  {
    DispatchWindow window;
    EXPECT_EQ(profiler.context(), Stage::kSimDispatch);
    EXPECT_TRUE(profiler.recording());  // event 0 opens a sampled block
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      window.tick();
      // After event i, probes are armed iff event i + 1 is in a block.
      const bool sampled = (i + 1) % kSampleStride < kSampleBlock;
      ASSERT_EQ(profiler.recording(), sampled) << "event " << i + 1;
    }
  }
  EXPECT_EQ(profiler.context(), Stage::kRoot);
  EXPECT_TRUE(profiler.recording());

  // Two full blocks plus the first 3 events of the third stride.
  const Report r = profiler.report();
  EXPECT_EQ(r.events, 12725u);
  EXPECT_EQ(r.sampled_events, 35u);
  const EdgeReport* e = find_edge(r, Stage::kRoot, Stage::kSimDispatch);
  ASSERT_NE(e, nullptr);
  // One dispatch slice per sampled event, scaled to every event.
  EXPECT_EQ(e->count, kEvents);
}

// --- wall-time deflation -----------------------------------------------------

TEST_F(ProfilerTest, WallTimeDeflatesOverAttributedEdges) {
  // Sampled dispatch slices claim 800 ticks/event, but the window's
  // measured wall time is 400 ticks/event — so every edge halves,
  // preserving stage proportions while the total drops to the wall.
  for (int i = 0; i < 10; ++i) {
    profiler.record(Stage::kRoot, Stage::kSimDispatch, 800);
    profiler.record(Stage::kSimDispatch, Stage::kGuardService, 600);
  }
  const Report r = profiler.report(4000.0 * profiler.ns_per_tick());
  EXPECT_NEAR(r.deflation, 0.5, 1e-9);
  EXPECT_NEAR(edge_ticks(r, Stage::kRoot, Stage::kSimDispatch), 4000.0, 1e-6);
  EXPECT_NEAR(edge_ticks(r, Stage::kSimDispatch, Stage::kGuardService),
              3000.0, 1e-6);
  // Deflation rescales time, not counts.
  const EdgeReport* e = find_edge(r, Stage::kRoot, Stage::kSimDispatch);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->count, 10u);
}

TEST_F(ProfilerTest, WallTimeNeverInflatesACheapProfile) {
  // Attribution below the measured wall (time spent outside the dispatch
  // loop, or probes that broke) stays as measured: the coverage gate must
  // see the gap, so deflation clamps at 1 and never invents time.
  for (int i = 0; i < 10; ++i) {
    profiler.record(Stage::kRoot, Stage::kSimDispatch, 400);
  }
  const Report r = profiler.report(8000.0 * profiler.ns_per_tick());
  EXPECT_DOUBLE_EQ(r.deflation, 1.0);
  EXPECT_NEAR(edge_ticks(r, Stage::kRoot, Stage::kSimDispatch), 4000.0, 1e-6);
  // Without a wall time (the flight recorder's snapshot) nothing scales.
  EXPECT_DOUBLE_EQ(profiler.report().deflation, 1.0);
}

// --- reporting ---------------------------------------------------------------

TEST_F(ProfilerTest, ResetClearsCellsStacksAndQualityCounters) {
  profiler.record(Stage::kRoot, Stage::kGuardService, 100);
  profiler.add_events(10, 2);
  profiler.span_end(Stage::kGuardDecode, 5);  // mismatch on empty stack
  ASSERT_EQ(profiler.mismatched_spans(), 1u);

  profiler.reset();
  const Report r = profiler.report();
  EXPECT_TRUE(r.edges.empty());
  EXPECT_EQ(r.mismatched_spans, 0u);
  EXPECT_EQ(r.events, 0u);
  EXPECT_EQ(r.sampled_events, 0u);
}

TEST_F(ProfilerTest, ReportJsonCarriesCoverageAndStageShares) {
  profiler.record(Stage::kRoot, Stage::kGuardService, 100);
  const std::string with_wall = profiler.report_json(1000.0);
  EXPECT_NE(with_wall.find("\"root_share\""), std::string::npos);
  EXPECT_NE(with_wall.find("\"share\""), std::string::npos);
  EXPECT_NE(with_wall.find("\"deflation\""), std::string::npos);
  EXPECT_NE(with_wall.find("\"events\""), std::string::npos);
  EXPECT_NE(with_wall.find("\"sampled_events\""), std::string::npos);
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
