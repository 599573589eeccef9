// Walkthrough — a packet-by-packet trace of every cookie scheme.
//
// Attaches a tap to the simulated network and prints each packet as it
// crosses a wire, annotated with the DNS message inside, so you can watch
// the exact message sequences of Fig. 2(a), Fig. 2(b), the TCP redirect,
// and Fig. 3 happen between an LRS driver, the guard, and the server.
//
//   ./build/examples/scheme_walkthrough
#include <cstdio>
#include <string>

#include "guard/remote_guard.h"
#include "server/authoritative_node.h"
#include "sim/simulator.h"
#include "workload/lrs_driver.h"

using namespace dnsguard;
using net::Ipv4Address;

namespace {

std::string describe(const net::Packet& p) {
  if (p.is_tcp()) {
    std::string flags;
    if (p.flags.syn) flags += "SYN ";
    if (p.flags.ack) flags += "ACK ";
    if (p.flags.fin) flags += "FIN ";
    if (p.flags.rst) flags += "RST ";
    if (p.flags.psh) flags += "PSH ";
    return "TCP " + flags + (p.payload.empty()
                                 ? ""
                                 : "(" + std::to_string(p.payload.size()) +
                                       "B data)");
  }
  auto m = dns::Message::decode(BytesView(p.payload));
  if (!m) return "UDP (unparsed)";
  std::string out = m->header.qr ? "resp " : "query ";
  if (const auto* q = m->question()) out += q->to_string();
  if (m->header.tc) out += " [TC]";
  for (const auto& rr : m->answers) out += " | AN " + rr.to_string();
  for (const auto& rr : m->authority) out += " | NS " + rr.to_string();
  for (const auto& rr : m->additional) {
    if (rr.type == dns::RrType::TXT && rr.name.is_root()) {
      out += " | COOKIE(txt)";
    } else {
      out += " | AR " + rr.to_string();
    }
  }
  return out;
}

void walkthrough(guard::Scheme scheme, workload::DriveMode mode,
                 const char* title) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");

  sim::Simulator sim;
  sim.set_default_latency(microseconds(200));
  const Ipv4Address ans_ip(10, 1, 1, 254);

  server::AnsSimulatorNode ans(sim, "server",
                               {.address = ans_ip});
  guard::RemoteGuardNode::Config gc;
  gc.guard_address = Ipv4Address(10, 1, 1, 253);
  gc.ans_address = ans_ip;
  gc.protected_zone = dns::DomainName{};
  gc.subnet_base = Ipv4Address(10, 1, 1, 0);
  gc.scheme = scheme;
  guard::RemoteGuardNode guard(sim, "guard", gc, &ans);
  guard.install();

  workload::LrsSimulatorNode::Config dc;
  dc.address = Ipv4Address(10, 0, 1, 1);
  dc.target = {ans_ip, net::kDnsPort};
  dc.mode = mode;
  dc.concurrency = 1;
  dc.timeout = milliseconds(100);
  workload::LrsSimulatorNode lrs(sim, "LRS", dc);
  sim.add_host_route(dc.address, &lrs);

  int shown = 0;
  sim.set_tap([&](SimTime t, const sim::Node* from, const sim::Node* to,
                  const net::Packet& p) {
    if (shown >= 14) return;  // one full request's worth of traffic
    ++shown;
    std::printf("  t=%7.3fms  %-6s -> %-6s  %s\n", t.ns / 1e6,
                from ? from->name().c_str() : "?",
                to ? to->name().c_str() : "?", describe(p).c_str());
  });

  lrs.start();
  sim.run_for(milliseconds(30));
  lrs.stop();
  sim.clear_tap();
  std::printf("\n");
}

}  // namespace

int main() {
  walkthrough(guard::Scheme::NsName, workload::DriveMode::NsNameMiss,
              "1. DNS-based, NS-name variant (Fig. 2(a)): cookie in a "
              "fabricated referral name");
  walkthrough(guard::Scheme::FabricatedNsIp,
              workload::DriveMode::FabricatedMiss,
              "2. DNS-based, fabricated NS name + IP (Fig. 2(b)): second "
              "cookie is the destination address");
  walkthrough(guard::Scheme::TcpRedirect, workload::DriveMode::TcpWithRedirect,
              "3. TCP-based (3.C): truncation redirect, SYN-cookie "
              "handshake, kernel proxy");
  walkthrough(guard::Scheme::ModifiedDns, workload::DriveMode::ModifiedMiss,
              "4. Modified DNS (Fig. 3): explicit cookie exchange in a TXT "
              "record");
  return 0;
}
