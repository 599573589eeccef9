// TimeSeriesSampler unit tests and its Simulator integration (epoch-
// guarded boundary events, run_for pairing, flight-recorder sections).
#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "sim/simulator.h"

namespace dnsguard {
namespace {

using obs::Counter;
using obs::MetricsRegistry;
using obs::TimeSeriesSampler;

SimTime at(std::int64_t ms) { return SimTime{} + milliseconds(ms); }

TEST(TimeSeriesSampler, WindowsHoldDeltasNotTotals) {
  MetricsRegistry reg;
  Counter c;
  reg.attach_counter("a.requests", c);
  TimeSeriesSampler ts;
  ts.start(reg, at(0), milliseconds(100), 16);
  ASSERT_TRUE(ts.running());
  ASSERT_EQ(ts.series_names().size(), 1u);

  c += 5;
  ts.sample(at(100));
  c += 2;
  ts.sample(at(200));
  ts.sample(at(300));  // idle window

  auto ws = ts.windows();
  ASSERT_EQ(ws.size(), 3u);
  EXPECT_EQ(ws[0].deltas[0], 5u);
  EXPECT_EQ(ws[1].deltas[0], 2u);
  EXPECT_EQ(ws[2].deltas[0], 0u);
  EXPECT_EQ(ws[0].start.ns, at(0).ns);
  EXPECT_EQ(ws[0].end.ns, at(100).ns);
  EXPECT_EQ(ws[2].end.ns, at(300).ns);
}

TEST(TimeSeriesSampler, SelectedSeriesOnlyAndUnresolvedSkipped) {
  MetricsRegistry reg;
  Counter keep, ignore;
  reg.attach_counter("keep.me", keep);
  reg.attach_counter("ignore.me", ignore);
  TimeSeriesSampler ts;
  ts.add_counter("keep.me");
  ts.add_counter("no.such.counter");
  ts.start(reg, at(0), milliseconds(10), 4);
  ASSERT_EQ(ts.series_names().size(), 1u);
  EXPECT_EQ(ts.series_names()[0], "keep.me");
  EXPECT_EQ(ts.series_index("keep.me"), 0);
  EXPECT_EQ(ts.series_index("ignore.me"), -1);
}

TEST(TimeSeriesSampler, CounterResetClampsDelta) {
  MetricsRegistry reg;
  Counter c;
  reg.attach_counter("x", c);
  TimeSeriesSampler ts;
  ts.start(reg, at(0), milliseconds(10), 8);
  c += 100;
  ts.sample(at(10));
  reg.reset_values();  // counter drops to zero mid-run
  c += 3;
  ts.sample(at(20));
  auto ws = ts.windows();
  ASSERT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws[0].deltas[0], 100u);
  EXPECT_EQ(ws[1].deltas[0], 3u);  // clamped to post-reset value
}

TEST(TimeSeriesSampler, RingBoundsRetention) {
  MetricsRegistry reg;
  Counter c;
  reg.attach_counter("x", c);
  TimeSeriesSampler ts;
  ts.start(reg, at(0), milliseconds(1), 4);
  for (int i = 1; i <= 10; ++i) {
    c += static_cast<std::uint64_t>(i);
    ts.sample(at(i));
  }
  EXPECT_EQ(ts.window_count(), 4u);
  auto ws = ts.windows();
  ASSERT_EQ(ws.size(), 4u);
  // Oldest first: windows 7..10 survive.
  EXPECT_EQ(ws[0].deltas[0], 7u);
  EXPECT_EQ(ws[3].deltas[0], 10u);
}

TEST(TimeSeriesSampler, OnWindowFires) {
  MetricsRegistry reg;
  Counter c;
  reg.attach_counter("x", c);
  TimeSeriesSampler ts;
  ts.start(reg, at(0), milliseconds(10), 8);
  int fired = 0;
  std::uint64_t last_delta = 0;
  ts.set_on_window([&](const TimeSeriesSampler::Window& w) {
    fired++;
    last_delta = w.deltas[0];
  });
  c += 9;
  ts.sample(at(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(last_delta, 9u);
}

TEST(TimeSeriesSampler, ToJsonShape) {
  MetricsRegistry reg;
  Counter c;
  reg.attach_counter("a.b", c);
  TimeSeriesSampler ts;
  ts.start(reg, at(0), milliseconds(500), 4);
  c += 7;
  ts.sample(at(500));
  std::string json = ts.to_json(2);
  EXPECT_NE(json.find("\"window_seconds\": 0.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"a.b\""), std::string::npos);
  EXPECT_NE(json.find("\"deltas\": [7]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"t_end_s\": 0.5"), std::string::npos) << json;
}

// --- Simulator integration ---

TEST(SimulatorTimeseries, RunForSamplesEveryBoundary) {
  Counter c;
  sim::Simulator sim;
  sim.metrics().attach_counter("test.ticks", c);
  sim.start_timeseries(milliseconds(100));
  // Some activity: bump the counter on a few scheduled events.
  for (int i = 1; i <= 5; ++i) {
    sim.schedule_in(milliseconds(i * 90), [&c] { c += 1; });
  }
  sim.run_for(milliseconds(1000));
  sim.stop_timeseries();
  EXPECT_EQ(sim.timeseries().window_count(), 10u);
  std::uint64_t total = 0;
  int idx = sim.timeseries().series_index("test.ticks");
  ASSERT_GE(idx, 0);
  for (const auto& w : sim.timeseries().windows()) {
    total += w.deltas[static_cast<std::size_t>(idx)];
  }
  EXPECT_EQ(total, 5u);
}

TEST(SimulatorTimeseries, StopPreventsFurtherSampling) {
  Counter x;
  sim::Simulator sim;
  sim.metrics().attach_counter("x", x);
  sim.start_timeseries(milliseconds(10));
  sim.run_for(milliseconds(50));
  sim.stop_timeseries();
  std::size_t n = sim.timeseries().window_count();
  sim.run_for(milliseconds(50));
  EXPECT_EQ(sim.timeseries().window_count(), n);
}

TEST(SimulatorTimeseries, RestartUsesFreshEpoch) {
  Counter x;
  sim::Simulator sim;
  sim.metrics().attach_counter("x", x);
  sim.start_timeseries(milliseconds(10));
  sim.run_for(milliseconds(30));
  sim.stop_timeseries();
  sim.start_timeseries(milliseconds(10));
  sim.run_for(milliseconds(30));
  sim.stop_timeseries();
  // Second run sampled its own boundaries; no double-fire from the first
  // epoch's stale events.
  EXPECT_EQ(sim.timeseries().window_count(), 3u);
}

TEST(SimulatorFlightRecorder, RenderCarriesAllSections) {
  Counter c;
  sim::Simulator sim;
  sim.metrics().attach_counter("some.counter", c);
  c += 3;
  sim.start_timeseries(milliseconds(10));
  sim.run_for(milliseconds(20));
  sim.stop_timeseries();
  std::string doc = sim.flight_recorder().render("unit", sim.now());
  EXPECT_NE(doc.find("\"label\": \"unit\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"metrics\""), std::string::npos);
  EXPECT_NE(doc.find("\"timeseries\""), std::string::npos);
  EXPECT_NE(doc.find("\"trace_rings\""), std::string::npos);
  EXPECT_NE(doc.find("\"journeys\""), std::string::npos);
  EXPECT_NE(doc.find("some.counter"), std::string::npos);
}

}  // namespace
}  // namespace dnsguard
