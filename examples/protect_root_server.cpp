// Scenario — a root-style DNS server under a spoofing DoS flood, with the
// guard switched on mid-attack.
//
// This is the paper's motivating story (§I: seven of thirteen root
// servers knocked out for an hour). A BIND-capacity server (14K req/s)
// serves two legitimate recursive drivers while a 40K req/s spoofed flood
// arrives. We let the attack crush the server for a while, then deploy
// the DNS guard (as the paper notes, "it can even be deployed only when a
// DoS attack arises") and watch legitimate service recover.
//
//   ./build/examples/protect_root_server
#include <cstdio>

#include "attack/attackers.h"
#include "guard/remote_guard.h"
#include "server/authoritative_node.h"
#include "server/zone.h"
#include "sim/simulator.h"
#include "workload/lrs_driver.h"

using namespace dnsguard;
using net::Ipv4Address;

namespace {

void report(const char* phase, SimDuration window,
            workload::LrsSimulatorNode& legit,
            server::AuthoritativeServerNode& ans, double attack_rate) {
  std::printf("%-28s attack=%5.0fK/s  legit-served=%6.0f/s  ans-cpu=%4.0f%%\n",
              phase, attack_rate / 1000.0,
              static_cast<double>(legit.driver_stats().completed) /
                  window.seconds(),
              ans.utilization(window) * 100.0);
}

}  // namespace

int main() {
  sim::Simulator sim;
  sim.set_default_latency(microseconds(200));

  const Ipv4Address root_ip(10, 1, 1, 254);
  server::AuthoritativeServerNode::Config ac;
  ac.address = root_ip;
  server::AuthoritativeServerNode root(sim, "root", ac);
  server::Zone zone(dns::DomainName{});
  zone.add_soa();
  zone.add_ns("com.", "a.gtld-servers.net.");
  zone.add_a("a.gtld-servers.net.", Ipv4Address(10, 0, 0, 2));
  root.add_zone(std::move(zone));
  sim.add_host_route(root_ip, &root);

  // A paced legitimate requester: ~2K req/s healthy, 2 s retry timer.
  workload::LrsSimulatorNode::Config lc;
  lc.address = Ipv4Address(10, 0, 1, 1);
  lc.target = {root_ip, net::kDnsPort};
  lc.mode = workload::DriveMode::NsNameHit;  // speaks plain DNS; learns
                                             // whatever referral it gets
  lc.concurrency = 40;
  lc.timeout = seconds(2);
  lc.think_time = milliseconds(18);
  workload::LrsSimulatorNode legit(sim, "legit", lc);
  sim.add_host_route(lc.address, &legit);

  attack::SpoofedFloodNode attacker(
      sim, "attacker",
      attack::FloodNodeBase::Config{.own_address = Ipv4Address(10, 9, 9, 9),
                                    .target = {root_ip, net::kDnsPort},
                                    .rate = 40000,
                                    .qname_base = "www.victim.com."});

  std::printf("phase 1: peacetime\n");
  legit.start();
  sim.run_for(seconds(2));
  sim.metrics().reset_values();
  root.reset_stats();
  sim.run_for(seconds(3));
  report("  no attack, no guard:", seconds(3), legit, root, 0);

  std::printf("\nphase 2: 40K req/s spoofed flood hits the naked server\n");
  attacker.start();
  sim.run_for(seconds(2));
  sim.metrics().reset_values();
  root.reset_stats();
  sim.run_for(seconds(6));
  report("  under attack, no guard:", seconds(6), legit, root, 40000);

  std::printf("\nphase 3: DNS guard deployed in front of the server\n");
  guard::RemoteGuardNode::Config gc;
  gc.guard_address = Ipv4Address(10, 1, 1, 253);
  gc.ans_address = root_ip;
  gc.protected_zone = dns::DomainName{};
  gc.subnet_base = Ipv4Address(10, 1, 1, 0);
  gc.scheme = guard::Scheme::NsName;
  gc.rl1.per_address_rate = 1e6;  // don't throttle our own legit driver
  gc.rl1.per_address_burst = 1e5;
  gc.rl2.per_host_rate = 1e6;
  gc.rl2.per_host_burst = 1e5;
  sim.remove_routes_to(&root);
  guard::RemoteGuardNode guard(sim, "guard", gc, &root);
  guard.install();

  sim.run_for(seconds(3));  // let the legit driver re-learn its cookie
  sim.metrics().reset_values();
  root.reset_stats();
  sim.run_for(seconds(6));
  report("  under attack, guarded:", seconds(6), legit, root, 40000);

  const auto& g = guard.guard_stats();
  std::printf(
      "\nguard counters during the last window:\n"
      "  spoofed requests absorbed (no valid cookie): %llu\n"
      "  legitimate cookie checks passed:             %llu\n"
      "  requests reaching the real server:           %llu\n",
      static_cast<unsigned long long>(g.fabricated_referrals +
                                      g.spoofs_dropped + g.rl1_throttled),
      static_cast<unsigned long long>(g.cookie_checks - g.spoofs_dropped),
      static_cast<unsigned long long>(g.forwarded_to_ans));

  attacker.stop();
  legit.stop();
  return 0;
}
