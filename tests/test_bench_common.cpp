// Bench harness helpers: the wall/CPU clock wrappers, quick-mode
// selection, and the ProfileCollector that builds the benches' "profile"
// JSON section. These run on the host clock by design (bench_common.h is
// sim-time-purity exempt), so assertions stick to algebraic properties —
// signs, monotonicity, emptiness — never absolute timings.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "bench/bench_common.h"

namespace dnsguard::bench {
namespace {

TEST(WallClockHelpers, EmptyWindowReportsZeroNotInfinity) {
  const WallClock::time_point t0 = wall_now();
  // A quick-mode window can complete zero operations; per-op cost must
  // degrade to 0, not inf/nan, or every JSON baseline comparison poisons.
  EXPECT_EQ(wall_ns_per_op(t0, 0), 0.0);
}

TEST(WallClockHelpers, PerOpCostIsPositiveAndScalesWithOps) {
  const WallClock::time_point t0 = wall_now();
  volatile double sink = 0.0;
  for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
  const double per_1 = wall_ns_per_op(t0, 1);
  const double per_1000 = wall_ns_per_op(t0, 1000);
  EXPECT_GT(per_1, 0.0);
  EXPECT_GT(per_1000, 0.0);
  // Same window, 1000x the ops: per-op cost must be smaller (the two
  // wall_seconds_since calls make the second window slightly longer, so
  // only the three-orders-of-magnitude direction is assertable).
  EXPECT_LT(per_1000, per_1);
}

TEST(WallClockHelpers, ThreadCpuSecondsIsMonotonicNonNegative) {
  const double c0 = thread_cpu_seconds();
  ASSERT_GE(c0, 0.0);
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  const double c1 = thread_cpu_seconds();
  EXPECT_GE(c1, c0);
}

TEST(QuickMode, EnvVariableSelectsTheSmokeValue) {
  // quick_mode() re-reads the environment on every call, so the test can
  // flip it locally and restore whatever the harness had set.
  const char* saved = std::getenv("DNSGUARD_BENCH_QUICK");
  const std::string saved_value = saved != nullptr ? saved : "";

  ::setenv("DNSGUARD_BENCH_QUICK", "1", 1);
  EXPECT_TRUE(quick_mode());
  EXPECT_EQ(quick(100, 7), 7);

  ::unsetenv("DNSGUARD_BENCH_QUICK");
  EXPECT_FALSE(quick_mode());
  EXPECT_EQ(quick(100, 7), 100);

  // An *empty* value means unset — CI exports the flag conditionally and
  // an empty expansion must not half-enable smoke mode.
  ::setenv("DNSGUARD_BENCH_QUICK", "", 1);
  EXPECT_FALSE(quick_mode());

  if (saved != nullptr) {
    ::setenv("DNSGUARD_BENCH_QUICK", saved_value.c_str(), 1);
  } else {
    ::unsetenv("DNSGUARD_BENCH_QUICK");
  }
}

TEST(ProfileCollectorTest, CaptureIsANoOpWhileProfilingIsDisabled) {
  obs::prof::profiler.disable();
  ProfileCollector collector;
  collector.capture("miss", 1e9);
  // Profiling is opt-in per bench: a disabled profiler yields no section,
  // so non-profiled benches' JSON stays byte-identical to before.
  EXPECT_TRUE(collector.empty());
}

TEST(ProfileCollectorTest, CapturedLabelsRenderAsJsonObjectKeys) {
  obs::prof::profiler.enable();
  obs::prof::profiler.reset();
  obs::prof::profiler.record(obs::prof::Stage::kRoot,
                             obs::prof::Stage::kGuardService, 100);
  ProfileCollector collector;
  collector.capture("ns_name_hit", 1e6);
  obs::prof::profiler.reset();
  collector.capture("ns_name_miss", 2e6);
  obs::prof::profiler.disable();

  ASSERT_FALSE(collector.empty());
  const std::string json = collector.to_json();
  EXPECT_NE(json.find("\"ns_name_hit\""), std::string::npos);
  EXPECT_NE(json.find("\"ns_name_miss\""), std::string::npos);
  EXPECT_NE(json.find("\"guard.service\""), std::string::npos);
  EXPECT_NE(json.find("\"root_share\""), std::string::npos);
}

}  // namespace
}  // namespace dnsguard::bench
