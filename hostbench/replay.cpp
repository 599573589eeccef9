#include "replay.h"

#include <array>
#include <cstdio>
#include <memory>
#include <string>

#include "alloc_counter.h"
#include "ratelimit/topk.h"

namespace hostbench {
namespace {

/// Simulated span the per-layer numbers describe, after the workload's
/// warmup. The capture holds every guard- and ANS-bound packet from time
/// zero, so the replayed layers start from the same state as the captured
/// ones; only calls inside the window are timed.
constexpr SimDuration kTraceWindow = milliseconds(500);
/// The untraced reference run measures slice times over 1000 slices of
/// 1 ms, so the p99 has ten slices beyond it.
constexpr SimDuration kRefSlice = milliseconds(1);
constexpr int kRefSlices = 1000;

struct Captured {
  SimTime sent;     // when the sender handed it to the network
  SimTime arrives;  // when the network delivers it
  net::Packet packet;
};

enum PktClass : std::size_t {
  kHit,
  kMiss,
  kForged,
  kCookieless,
  kAnsReply,
  kTcpSegment,
  kClassCount
};
constexpr std::array<const char*, kClassCount> kClassNames = {
    "hit", "miss", "forged", "cookieless", "ans_reply", "tcp_segment"};

/// Stands in for the ANS behind the replayed guard: swallows what the
/// guard forwards, so guard replay time excludes the server's.
class SinkNode final : public sim::Node {
 public:
  explicit SinkNode(sim::Simulator& sim) : sim::Node(sim, "sink") {}

 protected:
  SimDuration process(const net::Packet&) override { return SimDuration{0}; }
};

/// The guard under replay. Times each process() call and each shard
/// burst's pre-pass (shared evenly over the burst's packets), counts the
/// allocations inside them, and sorts packets into classes by what the
/// guard did with them.
class TimedGuard final : public guard::RemoteGuardNode {
 public:
  TimedGuard(sim::Simulator& sim, Config config, sim::Node* ans,
             SimTime window_open)
      : RemoteGuardNode(sim, "guard", std::move(config), ans),
        window_open_(window_open) {}

  std::array<std::vector<std::int64_t>, kClassCount> class_ns;
  std::vector<std::int64_t> close_ns;  // packets that completed a close
  std::int64_t window_ns = 0;
  std::uint64_t window_allocs = 0;
  std::uint64_t window_pkts = 0;

  /// The shard that owns `p`'s per-source state.
  [[nodiscard]] std::size_t shard_for(const net::Packet& p) const {
    return shard_of(p);
  }

 protected:
  void on_batch_begin(std::size_t lane, const net::Packet* batch,
                      std::size_t n) override {
    const std::uint64_t a0 = allocations();
    const auto t0 = WallClock::now();
    RemoteGuardNode::on_batch_begin(lane, batch, n);
    const std::int64_t ns = ns_between(t0, WallClock::now());
    batch_share_ns_ = n > 0 ? ns / static_cast<std::int64_t>(n) : 0;
    if (now() >= window_open_) {
      window_ns += ns;
      window_allocs += allocations() - a0;
    }
  }

  SimDuration process(const net::Packet& p) override {
    const guard::GuardStats& s = guard_stats();
    const std::uint64_t checks0 = s.cookie_checks.value();
    const std::uint64_t spoofs0 = s.spoofs_dropped.value();
    const std::size_t conns0 = proxy_connections();
    const std::uint64_t a0 = allocations();
    const auto t0 = WallClock::now();
    const SimDuration cost = RemoteGuardNode::process(p);
    const std::int64_t ns = ns_between(t0, WallClock::now());
    const std::uint64_t allocs = allocations() - a0;
    if (now() < window_open_) return cost;

    UncountedScope uncounted;
    window_ns += ns;
    window_allocs += allocs;
    ++window_pkts;
    PktClass cls;
    if (p.is_tcp()) {
      cls = kTcpSegment;
    } else if (p.src_ip == config().ans_address) {
      cls = kAnsReply;
    } else if (is_spoofed(p.src_ip)) {
      cls = s.spoofs_dropped.value() != spoofs0 ? kForged : kCookieless;
    } else {
      cls = s.cookie_checks.value() != checks0 ? kHit : kMiss;
    }
    const std::int64_t total = ns + (in_batch() ? batch_share_ns_ : 0);
    class_ns[cls].push_back(total);
    if (proxy_connections() < conns0) close_ns.push_back(total);
    return cost;
  }

 private:
  SimTime window_open_;
  std::int64_t batch_share_ns_ = 0;
};

/// The ANS under replay; times each query it serves.
class TimedAns final : public server::AnsSimulatorNode {
 public:
  TimedAns(sim::Simulator& sim, SimTime window_open)
      : AnsSimulatorNode(sim, "ans-sim",
                         server::AnsSimulatorNode::Config{.address = kAnsIp}),
        window_open_(window_open) {}

  std::vector<std::int64_t> ns;

 protected:
  SimDuration process(const net::Packet& p) override {
    const auto t0 = WallClock::now();
    const SimDuration cost = AnsSimulatorNode::process(p);
    const std::int64_t d = ns_between(t0, WallClock::now());
    if (now() >= window_open_) {
      UncountedScope uncounted;
      ns.push_back(d);
    }
    return cost;
  }

 private:
  SimTime window_open_;
};

/// Re-delivers `stream` into `node`: each packet is scheduled for its
/// captured arrival time at its captured send instant, so same-instant
/// events order as they did in the captured run. `step` runs after each.
template <typename Step>
void replay_stream(sim::Simulator& rsim, sim::Node& node,
                   const std::vector<Captured>& stream, SimTime end,
                   Step&& step) {
  for (const Captured& c : stream) {
    if (c.arrives > end) continue;  // the captured run never delivered it
    rsim.run_until(c.sent);
    rsim.schedule_at(c.arrives, [n = &node, p = c.packet]() mutable {
      n->deliver(std::move(p));
    });
    step();
  }
  rsim.run_until(end);
}

std::size_t ceil_div(std::size_t total, std::size_t n) {
  const std::size_t per = (total + n - 1) / n;
  return per == 0 ? 1 : per;
}

/// One guard shard's limiters, sized like the shard's, and a mirror of
/// its RL1 tracker that tells seen from unseen sources.
struct ShardLimiters {
  ShardLimiters(const ratelimit::CookieResponseLimiter::Config& rl1c,
                const ratelimit::VerifiedRequestLimiter::Config& rl2c)
      : rl1(rl1c), rl2(rl2c), shadow(rl1c.tracker_capacity) {}
  ratelimit::CookieResponseLimiter rl1;
  ratelimit::VerifiedRequestLimiter rl2;
  ratelimit::SpaceSaving<net::Ipv4Address> shadow;
};

struct Samples {
  std::vector<std::int64_t> ns;
  std::uint64_t allocs = 0;
};

template <typename F>
auto timed(Samples& out, bool record, F&& f) {
  const std::uint64_t a0 = allocations();
  const auto t0 = WallClock::now();
  auto r = f();
  const std::int64_t d = ns_between(t0, WallClock::now());
  if (record) {
    out.allocs += allocations() - a0;
    UncountedScope uncounted;
    out.ns.push_back(d);
  }
  return r;
}

std::string fmt(const char* f, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), f, a, b, c);
  return buf;
}

}  // namespace

TraceOutcome run_trace(Workload workload, std::uint64_t seed) {
  TraceOutcome out;
  auto& metrics = out.metrics;

  // --- untraced reference window -------------------------------------------
  // Runs kRefSlices slices of kRefSlice after the warmup: its first
  // kTraceWindow is the untraced twin of the captured window, and all of
  // its slices give the slice-time p99.
  double ref_wall_ns = 0;
  double ref_events = 0;
  double ref_rx = 0;
  double setup_s = 0;
  std::vector<double> ref_slices;
  {
    const auto t0 = WallClock::now();
    Testbed ref(workload, seed);
    ref.start();
    ref.sim.run_until(SimTime{} + ref.warmup());
    setup_s = wall_seconds_since(t0);
    const Snapshot s0 = snapshot_of(ref.sim.metrics());
    const std::uint64_t rx0 = ref.guard->stats().rx.value();
    const SimTime twin_end = ref.sim.now() + kTraceWindow;
    for (int k = 1; k <= kRefSlices; ++k) {
      const std::uint64_t rx_before = ref.guard->stats().rx.value();
      const auto w0 = WallClock::now();
      ref.sim.run_until(SimTime{} + ref.warmup() + kRefSlice * k);
      const std::int64_t ns = ns_between(w0, WallClock::now());
      const std::uint64_t pkts = ref.guard->stats().rx.value() - rx_before;
      if (pkts > 0) {
        ref_slices.push_back(static_cast<double>(ns) /
                             static_cast<double>(pkts));
      }
      if (ref.sim.now() <= twin_end) {
        ref_wall_ns += static_cast<double>(ns);
        if (ref.sim.now() == twin_end) {
          ref_events = delta(s0, snapshot_of(ref.sim.metrics()),
                             "sim.events_dispatched");
          ref_rx = static_cast<double>(ref.guard->stats().rx.value() - rx0);
        }
      }
    }
  }

  // --- captured run ----------------------------------------------------------
  Testbed cap(workload, seed);
  const SimTime open = SimTime{} + cap.warmup();
  const SimTime end = open + kTraceWindow;
  std::vector<Captured> to_guard;
  std::vector<Captured> to_ans;
  const sim::Node* guard_node = cap.guard.get();
  const sim::Node* ans_node = cap.sim_ans.get();
  cap.sim.set_tap([&](SimTime t, const sim::Node* from, const sim::Node* to,
                      const net::Packet& p) {
    if (to == guard_node) {
      to_guard.push_back({t, t + cap.sim.latency_between(from, to), p});
    } else if (to == ans_node) {
      to_ans.push_back({t, t + cap.sim.latency_between(from, to), p});
    }
  });
  const std::uint64_t warm_a0 = allocations();
  cap.start();
  cap.sim.run_until(open);
  const std::uint64_t warmup_allocs = allocations() - warm_a0;
  const Testbed::Mark mark0 = cap.mark();
  const Snapshot& s0 = mark0.metrics;
  const SimDuration busy0 = cap.guard->stats().busy;
  const std::uint64_t rx0 = cap.guard->stats().rx.value();
  const std::uint64_t spoof_sent0 = cap.spoofed_sent();
  const auto w0 = WallClock::now();
  cap.sim.run_until(end);
  const double cap_wall_ns =
      static_cast<double>(ns_between(w0, WallClock::now()));
  cap.sim.clear_tap();
  const Snapshot s1 = snapshot_of(cap.sim.metrics());
  const double rx = static_cast<double>(cap.guard->stats().rx.value() - rx0);
  const double busy_ns =
      static_cast<double>((cap.guard->stats().busy - busy0).ns);

  // --- output checks on the captured window ---------------------------------
  out.failures = cap.check_since(mark0);
  if (warmup_allocs == 0) out.failures.emplace_back("allocation counter saw 0");
  if (rx == 0) out.failures.emplace_back("the guard received nothing");
  const Testbed::LegitCounts legit = cap.legit_counts();
  const std::uint64_t spoof_admitted =
      cap.tally.spoofed_at_ans - mark0.tally.spoofed_at_ans;
  out.failed = (legit.timeouts - mark0.legit.timeouts) +
               (legit.unexpected - mark0.legit.unexpected) +
               (cap.tally.bad_replies - mark0.tally.bad_replies);
  out.attempted =
      (legit.completed - mark0.legit.completed) +
      (legit.timeouts - mark0.legit.timeouts) +
      (legit.unexpected - mark0.legit.unexpected);

  // --- guard replay ----------------------------------------------------------
  const guard::RemoteGuardNode::Config& gcfg = cap.guard->config();
  double nat_sum = 0;
  double conn_sum = 0;
  double steps = 0;
  sim::Simulator gsim;
  gsim.set_default_latency(cap.sim.latency_between(nullptr, nullptr));
  SinkNode sink(gsim);
  TimedGuard g(gsim, gcfg, &sink, open);
  replay_stream(gsim, g, to_guard, end, [&] {
    if (gsim.now() < open) return;
    nat_sum += static_cast<double>(g.nat_entries());
    conn_sum += static_cast<double>(g.proxy_connections());
    steps += 1;
  });
  {
    // Self-check: the replayed guard must end where the captured one did.
    const Snapshot replayed = snapshot_of(gsim.metrics());
    std::size_t compared = 0;
    std::string mismatch;
    for (const auto& [name, value] : s1) {
      if (name.rfind("guard.", 0) != 0) continue;
      ++compared;
      auto it = replayed.find(name);
      const double got = it == replayed.end() ? -1.0 : it->second;
      if (got != value && mismatch.size() < 400) {
        mismatch += " " + name + "=" + fmt("%.0f", got) + "/" +
                    fmt("%.0f", value);
      }
    }
    if (!mismatch.empty()) {
      out.failures.push_back("replayed guard counters differ (replay/capture):" +
                             mismatch);
    }
    out.report.push_back(
        fmt("guard replay: %.0f guard.* counters compared, ",
            static_cast<double>(compared)) +
        (mismatch.empty() ? "all equal" : "MISMATCH"));
  }

  // --- ANS replay ------------------------------------------------------------
  sim::Simulator asim;
  asim.set_default_latency(cap.sim.latency_between(nullptr, nullptr));
  TimedAns a(asim, open);
  replay_stream(asim, a, to_ans, end, [] {});
  if (static_cast<double>(a.ans_stats().udp_queries.value()) !=
      s1.at("server.ans_sim.udp_queries")) {
    out.failures.emplace_back("replayed ANS query count differs");
  }

  // --- codec, crypto and limiter replays -------------------------------------
  Samples decode, encode, mint, verify, rl1, rl2;
  ratelimit::CookieResponseLimiter::Config rl1c = gcfg.rl1;
  rl1c.max_buckets = ceil_div(rl1c.max_buckets, gcfg.num_shards);
  rl1c.tracker_capacity = ceil_div(rl1c.tracker_capacity, gcfg.num_shards);
  ratelimit::VerifiedRequestLimiter::Config rl2c = gcfg.rl2;
  rl2c.max_hosts = ceil_div(rl2c.max_hosts, gcfg.num_shards);
  // Each request goes to the limiters of the shard the guard routes it to.
  std::vector<std::unique_ptr<ShardLimiters>> shards;
  for (std::size_t k = 0; k < g.shard_count(); ++k) {
    shards.push_back(std::make_unique<ShardLimiters>(rl1c, rl2c));
  }
  guard::CookieEngine engine(gcfg.key_seed);
  std::uint64_t rl1_unseen = 0;
  Bytes wire;
  wire.reserve(4096);
  double tcp_segments = 0;

  auto codec = [&](const net::Packet& p) {
    auto m = timed(decode, true,
                   [&] { return dns::Message::decode(BytesView(p.payload)); });
    if (m) timed(encode, true, [&] { m->encode_to(wire); return 0; });
  };
  for (const Captured& c : to_guard) {
    if (c.arrives > end) continue;
    const net::Packet& p = c.packet;
    const bool in_window = c.arrives >= open;
    if (in_window && p.is_tcp()) tcp_segments += 1;
    if (!p.is_udp() || p.payload.empty()) continue;
    if (in_window) codec(p);
    if (p.src_ip == gcfg.ans_address) continue;  // replies: codec only

    auto m = dns::Message::decode(BytesView(p.payload));
    if (!m || m->header.qr || m->question() == nullptr) continue;
    if (in_window) timed(mint, true, [&] { return engine.mint(p.src_ip); });
    // Which limiter the guard consults: requests without a cookie get a
    // cookie response through RL1; requests whose cookie verifies go
    // through RL2 (Fig. 4).
    std::optional<bool> verified;  // empty: no cookie presented
    const auto txt = guard::CookieEngine::extract_txt_cookie(*m);
    if (txt && !guard::CookieEngine::is_zero_cookie(*txt)) {
      verified = timed(verify, in_window, [&] {
                   return engine.verify_ex(p.src_ip, *txt);
                 }).ok;
    } else if (!txt && !(p.dst_ip == gcfg.ans_address)) {
      verified = engine
                     .verify_cookie_address_ex(p.src_ip, p.dst_ip,
                                               gcfg.subnet_base, gcfg.r_y)
                     .ok;
    } else if (!txt && m->question()->qname.label_count() >= 1) {
      if (auto parsed = guard::CookieEngine::parse_cookie_label(
              m->question()->qname.first_label())) {
        verified =
            engine.verify_prefix_ex(p.src_ip, parsed->cookie_prefix).ok;
      }
    }
    ShardLimiters& sh = *shards[g.shard_for(p)];
    if (!verified) {
      if (in_window && !sh.shadow.contains(p.src_ip)) ++rl1_unseen;
      sh.shadow.record(p.src_ip);
      timed(rl1, in_window,
            [&] { return sh.rl1.allow(p.src_ip, c.arrives); });
    } else if (*verified) {
      timed(rl2, in_window,
            [&] { return sh.rl2.allow(p.src_ip, c.arrives); });
    }
  }
  for (const Captured& c : to_ans) {
    if (c.arrives >= open && c.arrives <= end && !c.packet.payload.empty()) {
      codec(c.packet);
    }
  }

  // --- per-layer metrics -----------------------------------------------------
  const double window_pkts = static_cast<double>(g.window_pkts);
  double evicted = 0;
  for (const auto& [name, value] : s1) {
    if (name.size() >= 16 &&
        name.compare(name.size() - 16, 16, "evicted_capacity") == 0) {
      evicted += delta(s0, s1, name);
    }
  }
  double ans_ns = 0;
  for (std::int64_t v : a.ns) ans_ns += static_cast<double>(v);
  const double guard_share = ratio(static_cast<double>(g.window_ns), ref_wall_ns);
  const double server_share = ratio(ans_ns, ref_wall_ns);

  metrics.push_back(
      {"host.slice_ns_per_pkt_p99", quantile(ref_slices, 99), "ns"});
  metrics.push_back({"sim.events_per_guard_pkt", ratio(ref_events, ref_rx),
                     "count"});
  metrics.push_back({"sim.ns_per_event", ratio(ref_wall_ns, ref_events), "ns"});
  for (std::size_t k = 0; k < kClassCount; ++k) {
    metrics.push_back({std::string("guard.pkt_ns_p50.") + kClassNames[k],
                       quantile(g.class_ns[k], 50), "ns"});
    metrics.push_back({std::string("guard.pkt_ns_p99.") + kClassNames[k],
                       quantile(g.class_ns[k], 99), "ns"});
  }
  metrics.push_back({"guard.allocs_per_pkt",
                     ratio(static_cast<double>(g.window_allocs), window_pkts),
                     "count"});
  metrics.push_back({"guard.model_ns_per_pkt", ratio(busy_ns, rx), "ns"});
  metrics.push_back({"guard.wall_share", guard_share, "ratio"});
  metrics.push_back({"server.wall_share", server_share, "ratio"});
  metrics.push_back(
      {"residual.wall_share", 1.0 - guard_share - server_share, "ratio"});
  const double decodes = static_cast<double>(decode.ns.size());
  const double encodes = static_cast<double>(encode.ns.size());
  metrics.push_back({"dns.decode_ns_p50", quantile(decode.ns, 50), "ns"});
  metrics.push_back({"dns.decode_ns_p99", quantile(decode.ns, 99), "ns"});
  metrics.push_back({"dns.decode_allocs",
                     ratio(static_cast<double>(decode.allocs), decodes),
                     "count"});
  metrics.push_back({"dns.encode_ns_p50", quantile(encode.ns, 50), "ns"});
  metrics.push_back({"dns.encode_ns_p99", quantile(encode.ns, 99), "ns"});
  metrics.push_back({"dns.encode_allocs",
                     ratio(static_cast<double>(encode.allocs), encodes),
                     "count"});
  const double crypto_ops = delta(s0, s1, "guard.cookies_minted") +
                            delta(s0, s1, "guard.cookie_checks");
  const std::size_t mints = mint.ns.size();
  const std::size_t verifies = verify.ns.size();
  metrics.push_back({"crypto.mint_ns_p50", quantile(mint.ns, 50), "ns"});
  metrics.push_back({"crypto.verify_ns_p50", quantile(verify.ns, 50), "ns"});
  metrics.push_back({"crypto.ops_per_guard_pkt", ratio(crypto_ops, rx),
                     "count"});
  const std::size_t rl1_calls = rl1.ns.size();
  const std::size_t rl2_calls = rl2.ns.size();
  metrics.push_back({"ratelimit.rl1_allow_ns_p50", quantile(rl1.ns, 50), "ns"});
  metrics.push_back({"ratelimit.rl1_allow_ns_p99", quantile(rl1.ns, 99), "ns"});
  metrics.push_back({"ratelimit.rl1_unseen_share",
                     ratio(static_cast<double>(rl1_unseen),
                           static_cast<double>(rl1_calls)),
                     "ratio"});
  metrics.push_back({"ratelimit.rl2_allow_ns_p50", quantile(rl2.ns, 50), "ns"});
  metrics.push_back({"ratelimit.rl2_allow_ns_p99", quantile(rl2.ns, 99), "ns"});
  metrics.push_back({"common.table_evictions_per_pkt", ratio(evicted, rx),
                     "count"});
  metrics.push_back({"tcp.segments_per_req",
                     ratio(tcp_segments, delta(s0, s1, "guard.proxy_queries")),
                     "count"});
  metrics.push_back({"tcp.live_conns_mean", ratio(conn_sum, steps), "count"});
  metrics.push_back({"guard.nat_entries_mean", ratio(nat_sum, steps), "count"});
  const std::size_t closes = g.close_ns.size();
  metrics.push_back({"tcp.close_ns_p50", quantile(g.close_ns, 50), "ns"});
  metrics.push_back({"tcp.close_ns_p99", quantile(g.close_ns, 99), "ns"});
  metrics.push_back({"server.ans_ns_p50", quantile(a.ns, 50), "ns"});
  metrics.push_back({"trace.overhead_ratio", ratio(cap_wall_ns, ref_wall_ns),
                     "ratio"});

  // --- report ----------------------------------------------------------------
  out.report.push_back(fmt("setup_s %.3f (one build + warmup), peak_rss_mb "
                           "%.1f",
                           setup_s, peak_rss_mb()));
  out.report.push_back(fmt("window: %.3f s simulated; untraced %.3f s wall, "
                           "captured %.3f s wall",
                           static_cast<double>(kTraceWindow.ns) * 1e-9,
                           ref_wall_ns * 1e-9, cap_wall_ns * 1e-9));
  out.report.push_back(fmt("captured %.0f guard-bound and %.0f ANS-bound "
                           "packets; %.0f guard packets in the window",
                           static_cast<double>(to_guard.size()),
                           static_cast<double>(to_ans.size()), rx));
  std::string classes = "guard samples per class:";
  for (std::size_t k = 0; k < kClassCount; ++k) {
    classes += std::string(" ") + kClassNames[k] + "=" +
               std::to_string(g.class_ns[k].size());
  }
  out.report.push_back(classes);
  out.report.push_back(fmt("samples: decode %.0f, encode %.0f, mint %.0f",
                           decodes, encodes, static_cast<double>(mints)) +
                       fmt(", verify %.0f, rl1 %.0f, rl2 %.0f",
                           static_cast<double>(verifies),
                           static_cast<double>(rl1_calls),
                           static_cast<double>(rl2_calls)) +
                       fmt(", closes %.0f, ans %.0f",
                           static_cast<double>(closes),
                           static_cast<double>(a.ns.size())));
  out.report.push_back(fmt("model.spoof_admit_ratio %.6g (%.0f spoofed sent)",
                           ratio(static_cast<double>(spoof_admitted),
                                 static_cast<double>(cap.spoofed_sent() -
                                                     spoof_sent0)),
                           static_cast<double>(cap.spoofed_sent() -
                                               spoof_sent0)));
  return out;
}

}  // namespace hostbench
