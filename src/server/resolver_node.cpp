#include "server/resolver_node.h"

#include <algorithm>

namespace dnsguard::server {
namespace {

/// Overall per-task attempt budget (loop protection).
constexpr int kMaxAttempts = 24;
/// CNAME links followed per task.
constexpr int kMaxCnameDepth = 8;
/// Nesting of glueless-NS sub-resolutions.
constexpr int kMaxGlueDepth = 3;
/// Admission cap on concurrently resolving tasks: past it, new client
/// queries are shed with ServFail instead of growing the task map. A real
/// resolver has the same knob (BIND: recursive-clients).
constexpr std::size_t kMaxInflightTasks = 8192;
/// Cap on outstanding iterative queries (keyed by 16-bit id, so the
/// keyspace itself bounds this at 65535).
constexpr std::size_t kMaxPendingQueries = 65536;

}  // namespace

RecursiveResolverNode::RecursiveResolverNode(sim::Simulator& sim,
                                             std::string name, Config config)
    : sim::Node(sim, std::move(name)),
      config_(std::move(config)),
      tasks_({.capacity = kMaxInflightTasks, .evict_lru_when_full = false}),
      pending_({.capacity = kMaxPendingQueries,
                .evict_lru_when_full = false}) {
  set_profile_stage(obs::prof::Stage::kResolverService);
  tcp_ = std::make_unique<tcp::TcpStack>(
      [this](net::Packet p) { send(std::move(p)); },
      [this] { return now(); },
      tcp::TcpStack::Callbacks{
          .on_message = [this](tcp::ConnId id,
                               BytesView m) { on_tcp_message(id, m); },
          .on_closed = {},
      },
      tcp::TcpStack::Options{});
  // TCP fallback legs are keyed by our client-side endpoint (address,
  // ephemeral port); start_tcp_query aliases them onto the task journey.
  tcp_->set_journey_fn([this](net::SocketAddr client, std::string_view stage,
                              bool may_open) {
    this->sim().journeys().mark({client.ip.value(), client.port, 0}, stage,
                                now(), may_open);
  });
  stats_.bind(this->sim().metrics(), "server.lrs");
  drops_.bind(this->sim().metrics(), "server.lrs");
  cache_.bind_metrics(this->sim().metrics(), "server.cache");
  tcp_->bind_metrics(this->sim().metrics(), "server.lrs.tcp");
  tasks_.bind_metrics(this->sim().metrics(), "server.lrs.tasks");
  pending_.bind_metrics(this->sim().metrics(), "server.lrs.pending");
}

void RecursiveResolverNode::resolve(const dns::DomainName& qname,
                                    dns::RrType qtype, ResolveCallback cb,
                                    std::optional<obs::JourneyKey> jkey) {
  start_task(dns::Question{qname, qtype, dns::RrClass::IN}, std::nullopt,
             std::move(cb), /*parent=*/0, /*glue_depth=*/0, jkey);
}

std::uint16_t RecursiveResolverNode::allocate_query_id() {
  // Skip ids still in flight; with < 2^16 outstanding this terminates.
  for (int i = 0; i < 65536; ++i) {
    std::uint16_t id = next_query_id_++;
    if (id != 0 && !pending_.contains(id)) return id;
  }
  return 0;  // resolver saturated; caller fails the task
}

std::uint64_t RecursiveResolverNode::start_task(
    dns::Question question, std::optional<ClientRef> client,
    ResolveCallback cb, std::uint64_t parent, int glue_depth,
    std::optional<obs::JourneyKey> jkey) {
  Task task;
  task.id = next_task_id_++;
  task.original_qname = question.qname;
  task.original_qtype = question.qtype;
  task.question = std::move(question);
  task.client = std::move(client);
  task.callback = std::move(cb);
  task.parent = parent;
  task.glue_depth = glue_depth;
  task.started_at = now();
  if (jkey) {
    task.jkey = *jkey;
    task.has_jkey = true;
  } else if (task.client) {
    task.jkey = {task.client->addr.ip.value(), task.client->query_id,
                 task.client->question.qname.hash32()};
    task.has_jkey = true;
  }
  std::uint64_t id = task.id;
  auto ins = tasks_.try_emplace(id, now(), std::move(task));
  if (ins.value == nullptr) {
    // At the in-flight cap the table refuses (leaving `task` untouched):
    // shed the new work with ServFail at admission rather than let a
    // query flood grow the task map without bound.
    stats_.failures++;
    if (task.client) {
      dns::Message resp;
      resp.header.id = task.client->query_id;
      resp.header.qr = true;
      resp.header.rd = true;
      resp.header.ra = true;
      resp.header.rcode = dns::Rcode::ServFail;
      resp.questions.push_back(task.client->question);
      stats_.client_responses++;
      send(net::Packet::make_udp({config_.address, net::kDnsPort},
                                 task.client->addr, resp.encode()));
    }
    if (task.callback) {
      Result r;
      r.elapsed = SimDuration{0};
      task.callback(r);
    }
    if (parent != 0) fail(parent);
    return 0;
  }
  continue_task(id);
  return id;
}

RecursiveResolverNode::ServerSelection
RecursiveResolverNode::select_servers(const dns::DomainName& qname) {
  ServerSelection sel;
  // Walk enclosing zones from the deepest: qname itself, its parent, ...
  // down to the root. The guard's fabricated referrals place the "zone"
  // exactly at qname, so starting at depth == label_count matters.
  for (std::size_t depth = qname.label_count();; --depth) {
    dns::DomainName zone = qname.suffix(depth);
    auto ns_set = cache_.get(zone, dns::RrType::NS, now());
    if (ns_set) {
      std::optional<dns::DomainName> first_unresolved;
      for (const auto& ns : *ns_set) {
        const auto& nsname = std::get<dns::NsRdata>(ns.rdata).nsdname;
        if (auto addrs = cache_.get(nsname, dns::RrType::A, now())) {
          for (const auto& a : *addrs) {
            sel.addresses.push_back(std::get<dns::ARdata>(a.rdata).address);
          }
        } else if (!first_unresolved) {
          first_unresolved = nsname;
        }
      }
      if (!sel.addresses.empty()) return sel;
      if (first_unresolved) {
        sel.glue_needed = first_unresolved;
        return sel;
      }
      // NS names cached but unresolvable; fall through to shallower zone.
    }
    if (depth == 0) break;
  }
  sel.addresses = config_.root_hints;
  return sel;
}

void RecursiveResolverNode::continue_task(std::uint64_t task_id) {
  Task* found = tasks_.find(task_id, now());
  if (found == nullptr) return;
  Task& task = *found;
  task.waiting_glue = false;

  if (++task.attempts > kMaxAttempts) {
    fail(task_id);
    return;
  }

  // 1. Cache: direct answer?
  if (auto hit = cache_.get(task.question.qname, task.question.qtype, now())) {
    for (const auto& rr : *hit) task.accumulated.push_back(rr);
    complete(task_id, true, dns::Rcode::NoError);
    return;
  }
  // Negative cache (RFC 2308): a recent NXDOMAIN/NODATA answers without
  // touching the network.
  if (auto neg = cache_.get_negative(task.question.qname, task.question.qtype,
                                     now())) {
    complete(task_id, true, *neg);
    return;
  }
  // Cached CNAME redirect?
  if (task.question.qtype != dns::RrType::CNAME) {
    if (auto cn = cache_.get(task.question.qname, dns::RrType::CNAME, now())) {
      if (++task.cname_depth > kMaxCnameDepth) {
        fail(task_id);
        return;
      }
      stats_.cname_chases++;
      task.accumulated.push_back(cn->front());
      task.question.qname = std::get<dns::CnameRdata>(cn->front().rdata).target;
      continue_task(task_id);
      return;
    }
  }

  // 2. Choose servers.
  ServerSelection sel = select_servers(task.question.qname);
  if (sel.glue_needed) {
    if (task.glue_depth >= kMaxGlueDepth) {
      fail(task_id);
      return;
    }
    stats_.glue_subtasks++;
    task.waiting_glue = true;
    std::uint64_t parent_id = task.id;
    start_task(dns::Question{*sel.glue_needed, dns::RrType::A,
                             dns::RrClass::IN},
               std::nullopt, {}, parent_id, task.glue_depth + 1);
    return;
  }
  task.servers = std::move(sel.addresses);
  task.server_index = 0;
  task.retries = 0;
  if (task.servers.empty()) {
    fail(task_id);
    return;
  }
  send_iterative(task);
}

void RecursiveResolverNode::send_iterative(Task& task) {
  std::uint16_t qid = allocate_query_id();
  if (qid == 0) {
    fail(task.id);
    return;
  }
  net::Ipv4Address server = task.servers[task.server_index];
  dns::Message query = dns::Message::query(qid, task.question.qname,
                                           task.question.qtype,
                                           /*recursion_desired=*/false);
  if (config_.edns_payload_size > 0) {
    query.additional.push_back(dns::ResourceRecord{
        dns::DomainName{}, dns::RrType::OPT, dns::RrClass::IN, 0,
        dns::OptRdata{config_.edns_payload_size}});
  }
  PendingQuery pq;
  pq.task_id = task.id;
  pq.question = task.question;
  pq.server = server;
  pq.timer_generation = ++last_timer_generation_;
  auto ins = pending_.try_emplace(qid, now(), std::move(pq));
  if (ins.value == nullptr) {
    fail(task.id);
    return;
  }
  stats_.iterative_queries++;

  if (task.has_jkey && sim().journeys().enabled()) {
    // The upstream exchange travels under (our address, new qid, qname):
    // alias it onto the client journey so guard-side marks merge.
    obs::JourneyTracker& jt = sim().journeys();
    jt.alias(task.jkey,
             {config_.address.value(), qid, task.question.qname.hash32()});
    jt.mark(task.jkey, "lrs.iterative", now());
  }

  send(net::Packet::make_udp({config_.address, net::kDnsPort},
                             {server, net::kDnsPort}, query.encode()));

  std::uint64_t gen = ins.value->timer_generation;
  schedule_in(config_.retry_timeout,
              [this, qid, gen] { on_timeout(qid, gen); });
}

void RecursiveResolverNode::on_timeout(std::uint16_t query_id,
                                       std::uint64_t generation) {
  PendingQuery* found = pending_.find(query_id, now());
  if (found == nullptr || found->timer_generation != generation) {
    return;  // already answered or superseded
  }
  PendingQuery pq = std::move(*found);
  pending_.erase(query_id);

  Task* tfound = tasks_.find(pq.task_id, now());
  if (tfound == nullptr) return;
  Task& task = *tfound;

  if (task.has_jkey && sim().journeys().enabled()) {
    sim().journeys().mark(task.jkey, "lrs.timeout", now());
  }
  if (task.retries < config_.max_retries) {
    task.retries++;
    stats_.retransmissions++;
    send_iterative(task);
    return;
  }
  // Next server, if any.
  if (task.server_index + 1 < task.servers.size()) {
    task.server_index++;
    task.retries = 0;
    stats_.retransmissions++;
    send_iterative(task);
    return;
  }
  fail(pq.task_id);
}

void RecursiveResolverNode::cache_message(const dns::Message& m) {
  cache_.put_all(m.answers, now());
  cache_.put_all(m.authority, now());
  cache_.put_all(m.additional, now());
}

bool RecursiveResolverNode::handle_response(const dns::Message& response,
                                            net::Ipv4Address from_server,
                                            bool via_tcp) {
  PendingQuery* pfound = pending_.find(response.header.id, now());
  if (pfound == nullptr) {
    drops_.count(obs::DropReason::kUnmatchedResponse);
    return false;
  }
  PendingQuery& pq = *pfound;
  // Anti-spoofing checks a real resolver performs: the response must come
  // from the queried server and echo the question.
  if (pq.server != from_server) {
    drops_.count(obs::DropReason::kUnmatchedResponse);
    return false;
  }
  const dns::Question* q = response.question();
  if (q == nullptr || !(q->qname == pq.question.qname) ||
      q->qtype != pq.question.qtype) {
    drops_.count(obs::DropReason::kUnmatchedResponse);
    return false;
  }
  std::uint64_t task_id = pq.task_id;

  // Truncated: retry the same query over TCP (RFC 1035 §4.2.2). Keep the
  // pending entry; the TCP response will land back here.
  if (response.header.tc && !via_tcp) {
    Task* tc_task = tasks_.find(task_id, now());
    if (tc_task == nullptr) {
      pending_.erase(response.header.id);
      return true;
    }
    pq.via_tcp = true;
    pq.timer_generation = ++last_timer_generation_;
    stats_.tcp_fallbacks++;
    // Arm a fresh timer for the TCP attempt so a stalled connection
    // (e.g. the guard dropping segments under attack) fails the task
    // instead of leaking it.
    std::uint16_t qid = response.header.id;
    std::uint64_t gen = pq.timer_generation;
    schedule_in(config_.retry_timeout * 2,
                [this, qid, gen] { on_timeout(qid, gen); });
    start_tcp_query(*tc_task, qid, from_server);
    return true;
  }

  pending_.erase(response.header.id);
  Task* tfound = tasks_.find(task_id, now());
  if (tfound == nullptr) return true;
  Task& task = *tfound;

  cache_message(response);

  // SOA "minimum" bounds how long a negative result may be cached
  // (RFC 2308 §5): use min(SOA TTL, SOA minimum).
  auto negative_ttl = [&response]() -> std::uint32_t {
    for (const auto& rr : response.authority) {
      if (rr.type == dns::RrType::SOA) {
        const auto& soa = std::get<dns::SoaRdata>(rr.rdata);
        return std::min(rr.ttl, soa.minimum);
      }
    }
    return 0;
  };

  if (response.header.rcode == dns::Rcode::NxDomain) {
    cache_.put_negative(task.question.qname, task.question.qtype,
                        dns::Rcode::NxDomain, negative_ttl(), now());
    complete(task_id, true, dns::Rcode::NxDomain);
    return true;
  }
  if (response.header.rcode != dns::Rcode::NoError) {
    // Try next server; a lame/refusing server shouldn't kill resolution.
    if (task.server_index + 1 < task.servers.size()) {
      task.server_index++;
      task.retries = 0;
      send_iterative(task);
    } else {
      fail(task_id);
    }
    return true;
  }

  if (!response.answers.empty()) {
    // Collect answers; chase a CNAME if the target type is still missing.
    bool have_target_type = false;
    std::optional<dns::DomainName> cname_target;
    for (const auto& rr : response.answers) {
      task.accumulated.push_back(rr);
      if (rr.type == task.question.qtype && rr.name == task.question.qname) {
        have_target_type = true;
      }
      if (rr.type == dns::RrType::CNAME && rr.name == task.question.qname) {
        cname_target = std::get<dns::CnameRdata>(rr.rdata).target;
      }
    }
    // Also accept any record of the right type for a CNAME-chained owner.
    if (!have_target_type) {
      for (const auto& rr : response.answers) {
        if (rr.type == task.question.qtype) have_target_type = true;
      }
    }
    if (have_target_type || task.question.qtype == dns::RrType::CNAME) {
      complete(task_id, true, dns::Rcode::NoError);
      return true;
    }
    if (cname_target) {
      if (++task.cname_depth > kMaxCnameDepth) {
        fail(task_id);
        return true;
      }
      stats_.cname_chases++;
      task.question.qname = *cname_target;
      continue_task(task_id);
      return true;
    }
    // Answers but nothing usable: treat as NODATA.
    complete(task_id, true, dns::Rcode::NoError);
    return true;
  }

  if (response.is_referral()) {
    // Accept the referral if it names a zone enclosing (or equal to) the
    // question; the guard's fabricated referrals use owner == qname.
    const auto& owner = response.authority.front().name;
    if (task.question.qname.is_subdomain_of(owner)) {
      stats_.referrals_followed++;
      continue_task(task_id);
      return true;
    }
  }

  // NODATA (or unusable referral): negative-cache the absence of this
  // type if the server supplied an SOA.
  cache_.put_negative(task.question.qname, task.question.qtype,
                      dns::Rcode::NoError, negative_ttl(), now());
  complete(task_id, true, dns::Rcode::NoError);
  return true;
}

void RecursiveResolverNode::complete(std::uint64_t task_id, bool ok,
                                     dns::Rcode rcode) {
  Task* found = tasks_.find(task_id, now());
  if (found == nullptr) return;
  Task task = std::move(*found);
  tasks_.erase(task_id);

  if (ok) {
    stats_.completed++;
  } else {
    stats_.failures++;
  }

  if (task.has_jkey && sim().journeys().enabled()) {
    // Mark, don't end: the journey terminates where the answer is
    // consumed (stub / driver), which still lies ahead of this hop.
    sim().journeys().mark(task.jkey, "lrs.respond", now());
  }

  if (task.parent != 0) {
    // Glue subtask: results are already in cache; resume the parent.
    Task* parent = tasks_.find(task.parent, now());
    if (parent != nullptr && parent->waiting_glue) {
      if (ok && rcode == dns::Rcode::NoError) {
        continue_task(task.parent);
      } else {
        fail(task.parent);
      }
    }
    return;
  }

  if (task.client) {
    dns::Message resp;
    resp.header.id = task.client->query_id;
    resp.header.qr = true;
    resp.header.rd = true;
    resp.header.ra = true;
    resp.header.rcode = ok ? rcode : dns::Rcode::ServFail;
    resp.questions.push_back(task.client->question);
    if (ok && rcode == dns::Rcode::NoError) {
      resp.answers = task.accumulated;
    }
    stats_.client_responses++;
    send(net::Packet::make_udp({config_.address, net::kDnsPort},
                               task.client->addr, resp.encode()));
  }
  if (task.callback) {
    Result r;
    r.ok = ok;  // "resolution completed"; rcode carries the DNS outcome
    r.rcode = ok ? rcode : dns::Rcode::ServFail;
    r.answers = std::move(task.accumulated);
    r.elapsed = now() - task.started_at;
    task.callback(r);
  }
}

void RecursiveResolverNode::start_tcp_query(const Task& task,
                                            std::uint16_t qid,
                                            net::Ipv4Address server) {
  net::SocketAddr local{config_.address, next_ephemeral_port_++};
  if (next_ephemeral_port_ < 10000) next_ephemeral_port_ = 10000;
  if (task.has_jkey && sim().journeys().enabled()) {
    // The TCP stack marks handshake milestones keyed by our client-side
    // endpoint; fold them into the task's journey.
    obs::JourneyTracker& jt = sim().journeys();
    jt.alias(task.jkey, {local.ip.value(), local.port, 0});
    jt.mark(task.jkey, "lrs.tcp_fallback", now());
  }
  const tcp::ConnId conn = tcp_->connect(local, {server, net::kDnsPort});
  // The stack holds the query until the handshake completes.
  const Bytes query = dns::Message::query(qid, task.question.qname,
                                          task.question.qtype, false)
                          .encode();
  tcp_->send_message(conn, BytesView(query));
}

void RecursiveResolverNode::on_tcp_message(tcp::ConnId conn,
                                           BytesView message) {
  auto m = dns::Message::decode(message);
  if (m && m->header.qr) {
    handle_response(*m, conn.remote.ip, /*via_tcp=*/true);
  }
  // One query per connection: close after the response arrives.
  tcp_->close(conn);
}

SimDuration RecursiveResolverNode::process(const net::Packet& packet) {
  if (packet.is_tcp()) {
    tcp_->handle_packet(packet);
    return config_.per_packet_cost;
  }
  if (!packet.is_udp()) {
    // Neither TCP nor UDP: nothing a DNS server can parse.
    drops_.count(obs::DropReason::kMalformed);
    trace(obs::TraceEvent::kDrop, packet, obs::DropReason::kMalformed);
    return SimDuration{0};
  }

  auto m = dns::Message::decode(BytesView(packet.payload));
  if (!m) {
    drops_.count(obs::DropReason::kMalformed);
    trace(obs::TraceEvent::kDrop, packet, obs::DropReason::kMalformed);
    return config_.per_packet_cost;
  }

  if (m->header.qr) {
    trace(obs::TraceEvent::kClassify, packet);
    if (!handle_response(*m, packet.src_ip, /*via_tcp=*/false)) {
      trace(obs::TraceEvent::kDrop, packet,
            obs::DropReason::kUnmatchedResponse);
    }
    return config_.per_packet_cost;
  }

  // A recursive client query (stub resolver).
  if (packet.dst_port == net::kDnsPort && m->header.rd &&
      m->question() != nullptr) {
    trace(obs::TraceEvent::kClassify, packet);
    stats_.client_queries++;
    ClientRef client{packet.src(), m->header.id, *m->question()};
    if (sim().journeys().enabled()) {
      sim().journeys().mark({packet.src_ip.value(), m->header.id,
                             m->question()->qname.hash32()},
                            "lrs.client_rx", now());
    }
    start_task(*m->question(), client, {}, 0, 0);
  } else {
    // Neither a usable response nor a recursive query.
    drops_.count(obs::DropReason::kMalformed);
    trace(obs::TraceEvent::kDrop, packet, obs::DropReason::kMalformed);
  }
  return config_.per_packet_cost;
}

}  // namespace dnsguard::server
