// The compile-time half of the profiler's zero-cost contract: this file
// builds with DNSGUARD_PROFILER_DISABLED (see tests/CMakeLists.txt), so
// its probe macros must compile out entirely — no Scope object, no load,
// no branch — while the rest of the profiler API stays usable for code
// that manages the profiler without probing.
#include <gtest/gtest.h>

#include "obs/profiler.h"

static_assert(DNSGUARD_PROF_COMPILED_IN == 0,
              "this translation unit must build without probes");

namespace dnsguard {
namespace {

using obs::prof::profiler;
using obs::prof::Report;
using obs::prof::Stage;

TEST(ProfilerDisabledTU, ProbeMacroCompilesToNothing) {
  profiler.enable();
  profiler.reset();
  {
    // In an armed, recording profiler these would open spans; compiled
    // out, they must leave no trace at all.
    DNSGUARD_PROF_SCOPE(Stage::kGuardService);
    DNSGUARD_PROF_SCOPE(Stage::kGuardDecode);
  }
  const Report r = profiler.report();
  EXPECT_TRUE(r.edges.empty());
  EXPECT_EQ(r.mismatched_spans, 0u);
  profiler.disable();
}

TEST(ProfilerDisabledTU, ProbeMacroIsAValidStatementAnywhere) {
  // The no-op expansion must still parse as a statement in the positions
  // real probe sites use it: plain, in an if-body, before a return.
  if (true) DNSGUARD_PROF_SCOPE(Stage::kCookieHash);
  for (int i = 0; i < 2; ++i) DNSGUARD_PROF_SCOPE(Stage::kGuardRl1);
  DNSGUARD_PROF_SCOPE(Stage::kGuardRl2);
  SUCCEED();
}

TEST(ProfilerDisabledTU, ManagementApiRemainsAvailable) {
  // Enabling/reporting still works from a probe-free TU — a bench built
  // with probes disabled can still read reports produced elsewhere.
  profiler.enable();
  profiler.record(Stage::kRoot, Stage::kGuardService, 100);
  const Report r = profiler.report();
  ASSERT_EQ(r.edges.size(), 1u);
  EXPECT_EQ(r.edges[0].stage, Stage::kGuardService);
  profiler.reset();
  profiler.disable();
}

}  // namespace
}  // namespace dnsguard
