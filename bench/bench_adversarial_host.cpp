// Attacker-shaped host cost, gated by within-run ratios.
//
// An attacker controls how full the guard's tables get. Each scenario here
// times one per-packet operation at a small and at a large table in the
// same process, interleaving the two, and the bench exits 1 when the
// large/small ratio of median ns exceeds kMaxRatio. Absolute ns differ per
// machine; the ratio does not: an operation whose cost is bounded by the
// packet's own state reads near 1, and an O(table) one reads near the
// size ratio (16x and 1024x here).
//
//   - rl1_unseen: CookieResponseLimiter::allow for a never-seen source
//     with a full RL1 tracker of 256 vs 4096 sources. Every packet of a
//     random-source spoofed flood takes this path. The heavy-hitter
//     threshold is lifted so both sizes time the tracker alone; the
//     bucket table behind it is sized separately.
//   - proxy_close: the guard handling a client's RST for a proxied
//     connection holding one NAT entry, after the NAT table's high-water
//     mark reached 16 vs 16,384 entries (16 connections of 1 vs 1,024
//     pipelined queries to a server that never answers, then reset).
//   - shard_aligned: VerifiedRequestLimiter::allow (RL2) for a never-seen
//     host, with hosts that a 4-shard guard sends to shard 0 vs random
//     hosts, at one table size (a cap of 4096 hosts; each timed batch of
//     512 takes a new table from 87% to one short of full). shard_of_ip
//     takes the top bits of ip x 0x9e3779b9, so one shard's sources share
//     the top bits of the table's Fibonacci product too: an index
//     bucketed by those bits would crowd them into a corner of itself.
//     The ratio is shard-0 over random.
//
// No committed baseline: the result is wall-clock, and the gate is the
// in-process ratio. The whole run takes well under a second, so quick mode
// runs it unchanged.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "guard/remote_guard.h"
#include "ratelimit/limiters.h"
#include "sim/simulator.h"

namespace dnsguard::bench {
namespace {

constexpr double kMaxRatio = 2.0;

constexpr net::Ipv4Address kClientIp(10, 0, 1, 1);

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

// --- never-seen sources ------------------------------------------------------

/// Exposes the guard's own source-to-shard map.
class ShardPeek : public guard::RemoteGuardNode {
 public:
  using RemoteGuardNode::RemoteGuardNode;
  using RemoteGuardNode::shard_of;
};

/// Never-seen hosts, in no useful order; with `shard0_of` set, only those
/// the guard sends to shard 0.
class HostStream {
 public:
  explicit HostStream(const ShardPeek* shard0_of) : guard_(shard0_of) {}

  net::Ipv4Address next() {
    while (true) {
      // Murmur3's finalizer is a bijection on 32 bits: every source is
      // new, and they arrive in no useful order, like a random-source
      // flood's.
      std::uint32_t x = next_++;
      x ^= x >> 16;
      x *= 0x85ebca6bu;
      x ^= x >> 13;
      x *= 0xc2b2ae35u;
      x ^= x >> 16;
      const net::Ipv4Address ip(x);
      if (guard_ == nullptr) return ip;
      const auto p = net::Packet::make_udp({ip, 5353}, {kGuardIp, 53},
                                           Bytes{});
      if (guard_->shard_of(p) == 0) return ip;
    }
  }

 private:
  const ShardPeek* guard_;
  std::uint32_t next_ = 1;
};

// --- rl1_unseen --------------------------------------------------------------

class Rl1Flood {
 public:
  explicit Rl1Flood(std::size_t tracker)
      : rl1_(ratelimit::CookieResponseLimiter::Config{
            .tracker_capacity = tracker,
            .heavy_hitter_threshold =
                std::numeric_limits<std::uint64_t>::max()}) {
    for (std::size_t i = 0; i < tracker; ++i) rl1_.allow(hosts_.next(), SimTime{});
  }

  /// ns per allow() over `calls` never-seen sources.
  double time_unseen(int calls) {
    std::uint64_t allowed = 0;
    const auto t0 = wall_now();
    for (int i = 0; i < calls; ++i) allowed += rl1_.allow(hosts_.next(), SimTime{});
    const double ns = wall_seconds_since(t0) * 1e9 / calls;
    if (allowed != static_cast<std::uint64_t>(calls)) {
      std::printf("throttled\n");
    }
    return ns;
  }

 private:
  ratelimit::CookieResponseLimiter rl1_;
  HostStream hosts_{nullptr};
};

// --- shard_aligned -----------------------------------------------------------

constexpr std::size_t kRl2Hosts = 1 << 12;
constexpr int kRl2Batch = 512;

/// ns per allow() over kRl2Batch never-seen hosts from `hosts`, on a new
/// RL2 table that the same stream first fills to one batch short of its
/// cap: the timed inserts run at an index load just under 1/2, where a
/// crowded corner of the index shows most. The hosts are drawn before
/// the clock starts, so the shard filter is not timed.
double time_fresh_rl2(HostStream& hosts) {
  ratelimit::VerifiedRequestLimiter rl2(
      ratelimit::VerifiedRequestLimiter::Config{.max_hosts = kRl2Hosts});
  for (std::size_t i = 0; i + kRl2Batch + 1 < kRl2Hosts; ++i) {
    rl2.allow(hosts.next(), SimTime{});
  }
  std::vector<net::Ipv4Address> batch;
  for (int i = 0; i < kRl2Batch; ++i) batch.push_back(hosts.next());
  std::uint64_t allowed = 0;
  const auto t0 = wall_now();
  for (const auto ip : batch) allowed += rl2.allow(ip, SimTime{});
  const double ns = wall_seconds_since(t0) * 1e9 / kRl2Batch;
  if (allowed != static_cast<std::uint64_t>(kRl2Batch)) {
    std::printf("refused\n");
  }
  return ns;
}

// --- proxy_close -------------------------------------------------------------

/// A server that never answers: NAT entries stay until their connection
/// closes.
class Blackhole : public sim::Node {
 public:
  explicit Blackhole(sim::Simulator& s) : sim::Node(s, "ans") {}

 protected:
  SimDuration process(const net::Packet&) override { return {}; }
};

/// Times the guard's handling of every RST segment it receives.
class RstTimedGuard : public guard::RemoteGuardNode {
 public:
  using RemoteGuardNode::RemoteGuardNode;
  std::vector<double> rst_ns;

 protected:
  SimDuration process(const net::Packet& p) override {
    if (!p.is_tcp() || !p.flags.rst) return RemoteGuardNode::process(p);
    const auto t0 = wall_now();
    const SimDuration d = RemoteGuardNode::process(p);
    rst_ns.push_back(wall_seconds_since(t0) * 1e9);
    return d;
  }
};

/// A DNS-over-TCP client that sends its queries pipelined in one segment:
/// queries sent during the handshake leave together once it completes.
class Client : public sim::Node {
 public:
  explicit Client(sim::Simulator& s)
      : sim::Node(s, "client"),
        tcp_([this](net::Packet p) { send(std::move(p)); },
             [this] { return now(); }, tcp::TcpStack::Callbacks{},
             tcp::TcpStack::Options{}) {
    s.add_host_route(kClientIp, this);
  }

  tcp::ConnId open(int queries) {
    const tcp::ConnId id =
        tcp_.connect({kClientIp, next_port_++}, {kAnsIp, net::kDnsPort});
    for (int q = 0; q < queries; ++q) {
      tcp_.send_message(
          id, BytesView(dns::Message::query(
                            static_cast<std::uint16_t>(q + 1),
                            *dns::DomainName::parse("www.example.com"),
                            dns::RrType::A, false)
                            .encode()));
    }
    return id;
  }
  void reset(tcp::ConnId id) { tcp_.abort(id); }

 protected:
  SimDuration process(const net::Packet& p) override {
    tcp_.handle_packet(p);
    return {};
  }

 private:
  tcp::TcpStack tcp_;
  std::uint16_t next_port_ = 1024;
};

class CloseBed {
 public:
  /// Raises the NAT high-water mark to 16 * `queries_per_conn` entries,
  /// then closes every connection, so the table is empty again.
  explicit CloseBed(int queries_per_conn) {
    guard::RemoteGuardNode::Config gc;
    gc.guard_address = kGuardIp;
    gc.ans_address = kAnsIp;
    gc.subnet_base = net::Ipv4Address(10, 1, 1, 0);
    gc.scheme = guard::Scheme::TcpRedirect;
    gc.rl2.per_host_rate = 1e9;
    gc.rl2.per_host_burst = 1e9;
    gc.proxy_conn_rate = 1e9;
    gc.proxy_conn_burst = 1e9;
    guard_ = std::make_unique<RstTimedGuard>(sim_, "guard", gc, &ans_);
    guard_->install();
    sim_.set_default_latency(microseconds(100));

    // The guard's modeled CPU needs ~30 ms of simulated time for 16K
    // proxied queries.
    std::vector<tcp::ConnId> conns;
    for (int c = 0; c < 16; ++c) {
      conns.push_back(client_.open(queries_per_conn));
    }
    sim_.run_for(milliseconds(100));
    high_water_ = guard_->nat_entries();
    for (tcp::ConnId id : conns) client_.reset(id);
    sim_.run_for(milliseconds(10));
    guard_->rst_ns.clear();
  }

  [[nodiscard]] std::size_t high_water() const { return high_water_; }
  [[nodiscard]] std::size_t nat_entries() const {
    return guard_->nat_entries();
  }

  /// One connection with one NAT entry, then its client's RST; returns
  /// the guard's ns for that RST.
  double time_close() {
    const tcp::ConnId id = client_.open(1);
    sim_.run_for(milliseconds(1));
    client_.reset(id);
    sim_.run_for(milliseconds(1));
    const double ns = guard_->rst_ns.empty() ? 0.0 : guard_->rst_ns.back();
    guard_->rst_ns.clear();
    return ns;
  }

 private:
  sim::Simulator sim_;
  Blackhole ans_{sim_};
  std::unique_ptr<RstTimedGuard> guard_;
  Client client_{sim_};
  std::size_t high_water_ = 0;
};

struct Result {
  double small_ns;
  double large_ns;
  [[nodiscard]] double ratio() const {
    return small_ns > 0 ? large_ns / small_ns : 0.0;
  }
};

}  // namespace
}  // namespace dnsguard::bench

int main() {
  using namespace dnsguard;
  using namespace dnsguard::bench;

  std::printf("Adversarial host cost: large/small table ratio of median ns "
              "per operation (gate <= %.1f)\n\n",
              kMaxRatio);

  // rl1_unseen: interleaved batches of never-seen sources.
  Result rl1{};
  {
    Rl1Flood small(256);
    Rl1Flood large(4096);
    std::vector<double> s, l;
    for (int r = 0; r < 41; ++r) {
      s.push_back(small.time_unseen(2048));
      l.push_back(large.time_unseen(2048));
    }
    rl1 = {median(s), median(l)};
  }
  std::printf("rl1_unseen   tracker  256: %9.1f ns/allow\n", rl1.small_ns);
  std::printf("rl1_unseen   tracker 4096: %9.1f ns/allow   ratio %.2f\n",
              rl1.large_ns, rl1.ratio());

  // proxy_close: interleaved single-entry closes.
  Result close{};
  std::size_t small_hw = 0, large_hw = 0, leftover = 0;
  {
    CloseBed small(1);
    CloseBed large(1024);
    small_hw = small.high_water();
    large_hw = large.high_water();
    std::vector<double> s, l;
    for (int r = 0; r < 2001; ++r) {
      s.push_back(small.time_close());
      l.push_back(large.time_close());
    }
    close = {median(s), median(l)};
    leftover = small.nat_entries() + large.nat_entries();
  }
  std::printf("proxy_close  NAT high-water %5zu: %9.1f ns/close\n", small_hw,
              close.small_ns);
  std::printf("proxy_close  NAT high-water %5zu: %9.1f ns/close   ratio "
              "%.2f\n",
              large_hw, close.large_ns, close.ratio());

  // shard_aligned: interleaved batches of never-seen hosts, random vs
  // shard 0 of a 4-shard guard, each on a new table filled near its cap.
  Result aligned{};
  {
    sim::Simulator sim;
    guard::RemoteGuardNode::Config gc;
    gc.guard_address = kGuardIp;
    gc.ans_address = kAnsIp;
    gc.subnet_base = net::Ipv4Address(10, 1, 1, 0);
    gc.num_shards = 4;
    const ShardPeek peek(sim, "guard", gc, nullptr);
    HostStream random(nullptr);
    HostStream shard0(&peek);
    std::vector<double> r, z;
    for (int i = 0; i < 41; ++i) {
      r.push_back(time_fresh_rl2(random));
      z.push_back(time_fresh_rl2(shard0));
    }
    aligned = {median(r), median(z)};
  }
  std::printf("shard_aligned  random hosts: %9.1f ns/allow\n",
              aligned.small_ns);
  std::printf("shard_aligned  shard-0 hosts: %8.1f ns/allow   ratio %.2f\n",
              aligned.large_ns, aligned.ratio());

  const bool setup_ok = small_hw == 16 && large_hw == 16 * 1024 &&
                        leftover == 0;
  if (!setup_ok) {
    std::printf("setup failed: NAT high-water %zu / %zu (want 16 / 16384), "
                "%zu entries left after every close\n",
                small_hw, large_hw, leftover);
  }
  const bool rl1_ok = rl1.ratio() <= kMaxRatio;
  const bool close_ok = close.ratio() <= kMaxRatio;
  const bool aligned_ok = aligned.ratio() <= kMaxRatio;
  std::printf("\nrl1_unseen %s, proxy_close %s, shard_aligned %s\n",
              rl1_ok ? "ok" : "FAIL", close_ok ? "ok" : "FAIL",
              aligned_ok ? "ok" : "FAIL");

  // No "profile" section: each scenario times a single operation.
  JsonResultWriter json("adversarial_host");
  json.add("rl1_unseen_ns_tracker_256", rl1.small_ns);
  json.add("rl1_unseen_ns_tracker_4096", rl1.large_ns);
  json.add("rl1_unseen_ratio", rl1.ratio());
  json.add("proxy_close_ns_nat_hw_16", close.small_ns);
  json.add("proxy_close_ns_nat_hw_16384", close.large_ns);
  json.add("proxy_close_ratio", close.ratio());
  json.add("shard_aligned_ns_random", aligned.small_ns);
  json.add("shard_aligned_ns_shard0", aligned.large_ns);
  json.add("shard_aligned_ratio", aligned.ratio());
  json.write();
  return setup_ok && rl1_ok && close_ok && aligned_ok ? 0 : 1;
}
