#include "faults/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <string>
#include <utility>

#include "olsr/wire.hpp"

namespace manet::faults {

// ------------------------------------------------------------------- writer

void CheckpointWriter::le(std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i)
    buf_.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
}

void CheckpointWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void CheckpointWriter::count(std::size_t n) {
  u64(static_cast<std::uint64_t>(n));
}

void CheckpointWriter::str(std::string_view s) {
  count(s.size());
  blob(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

void CheckpointWriter::blob(const std::uint8_t* data, std::size_t size) {
  buf_.insert(buf_.end(), data, data + size);
}

// ------------------------------------------------------------------- reader

std::uint64_t CheckpointReader::le(int bytes) {
  if (size_ - pos_ < static_cast<std::size_t>(bytes))
    throw CheckpointError{"truncated checkpoint"};
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += static_cast<std::size_t>(bytes);
  return v;
}

std::uint8_t CheckpointReader::u8() {
  return static_cast<std::uint8_t>(le(1));
}
std::uint16_t CheckpointReader::u16() {
  return static_cast<std::uint16_t>(le(2));
}
std::uint32_t CheckpointReader::u32() {
  return static_cast<std::uint32_t>(le(4));
}
std::uint64_t CheckpointReader::u64() { return le(8); }

double CheckpointReader::f64() { return std::bit_cast<double>(u64()); }

std::size_t CheckpointReader::count() {
  const std::uint64_t n = u64();
  // A count cannot exceed the remaining bytes (every element is >= 1 byte):
  // rejecting early turns corrupt lengths into clean errors, not OOM.
  if (n > size_ - pos_) throw CheckpointError{"corrupt checkpoint count"};
  return static_cast<std::size_t>(n);
}

std::string CheckpointReader::str() {
  const std::size_t n = count();
  if (size_ - pos_ < n) throw CheckpointError{"truncated checkpoint string"};
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

std::vector<std::uint8_t> CheckpointReader::blob() {
  const std::size_t n = count();
  if (size_ - pos_ < n) throw CheckpointError{"truncated checkpoint blob"};
  std::vector<std::uint8_t> b(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return b;
}

// ---------------------------------------------------------------------- rng

void encode_rng(CheckpointWriter& w, const sim::Rng::State& state) {
  for (const auto s : state.s) w.u64(s);
  w.boolean(state.has_cached_normal);
  w.f64(state.cached_normal);
}

sim::Rng::State decode_rng(CheckpointReader& r) {
  sim::Rng::State st;
  for (auto& s : st.s) s = r.u64();
  st.has_cached_normal = r.boolean();
  st.cached_normal = r.f64();
  return st;
}

// ---------------------------------------------------------------------- log

void encode_log(CheckpointWriter& w, const logging::LogStore& log) {
  w.count(log.records().size());
  for (const auto& rec : log.records()) {
    w.time(rec.time);
    w.node(rec.node);
    w.str(rec.event);
    w.count(rec.fields.size());
    for (const auto& [k, v] : rec.fields) {
      w.str(k);
      w.str(v);
    }
  }
  w.u64(log.total_appended());
  w.u64(log.dropped());
}

void decode_log(CheckpointReader& r, logging::LogStore& log) {
  std::deque<logging::LogRecord> records;
  const std::size_t n = r.count();
  for (std::size_t i = 0; i < n; ++i) {
    logging::LogRecord rec;
    rec.time = r.time();
    // The log's readers take the newest record as the freshest.
    if (!records.empty() && rec.time < records.back().time)
      throw CheckpointError{"log record times go backwards"};
    rec.node = r.node();
    rec.event = r.str();
    const std::size_t nf = r.count();
    rec.fields.reserve(nf);
    for (std::size_t f = 0; f < nf; ++f) {
      auto key = r.str();
      auto value = r.str();
      rec.fields.emplace_back(std::move(key), std::move(value));
    }
    records.push_back(std::move(rec));
  }
  const auto total = r.u64();
  const auto dropped = r.u64();
  // Otherwise base_index() wraps and every cursor reader silently stops.
  if (total != records.size() + dropped)
    throw CheckpointError{"log counters disagree with its records"};
  log.restore(std::move(records), total, dropped);
}

// ------------------------------------------------------------------- routes

void encode_routes(CheckpointWriter& w,
                   const olsr::RoutingTable::Persisted& routes) {
  w.node(routes.self);
  w.count(routes.dests.size());
  for (const auto d : routes.dests) w.node(d);
  w.count(routes.dist.size());
  for (const auto d : routes.dist) w.u32(static_cast<std::uint32_t>(d));
  w.count(routes.parent.size());
  for (const auto p : routes.parent) w.node(p);
}

olsr::RoutingTable::Persisted decode_routes(CheckpointReader& r) {
  olsr::RoutingTable::Persisted p;
  p.self = r.node();
  p.dests.resize(r.count());
  for (auto& d : p.dests) d = r.node();
  p.dist.resize(r.count());
  for (auto& d : p.dist) d = static_cast<std::int32_t>(r.u32());
  p.parent.resize(r.count());
  for (auto& n : p.parent) n = r.node();

  // route_to/path_to walk parent chains by binary search over dests, so
  // everything they rely on is checked here: parallel lengths, strictly
  // ascending dests without self, and parents one hop closer each step
  // (which also makes every chain end at self).
  const std::size_t n = p.dests.size();
  if (p.dist.size() != n || p.parent.size() != n)
    throw CheckpointError{"routing section lengths disagree"};
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && !(p.dests[i - 1] < p.dests[i]))
      throw CheckpointError{"routing destinations unsorted or duplicated"};
    if (p.dests[i] == p.self || p.dist[i] < 1 ||
        static_cast<std::size_t>(p.dist[i]) > n)
      throw CheckpointError{"routing entry out of range"};
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto it =
        std::lower_bound(p.dests.begin(), p.dests.end(), p.parent[i]);
    const bool ok =
        p.dist[i] == 1
            ? p.parent[i] == p.self
            : it != p.dests.end() && *it == p.parent[i] &&
                  p.dist[static_cast<std::size_t>(it - p.dests.begin())] ==
                      p.dist[i] - 1;
    if (!ok) throw CheckpointError{"routing parent out of range"};
  }
  return p;
}

// -------------------------------------------------------------------- agent

namespace {

// The OLSR tables answer every lookup by binary search, and restore
// derives the MPR reach rows from them, so each section must arrive in its
// table's strict storage order.
template <typename T, typename Key>
void require_ascending(const std::vector<T>& v, Key key, const char* what) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (key(v[i - 1]) < key(v[i])) continue;
    std::string msg{what};
    msg += " unsorted or duplicated";
    throw CheckpointError{msg};
  }
}

void encode_timer(CheckpointWriter& w, const sim::PeriodicTimer& t) {
  w.boolean(t.running());
  w.time(t.next_fire());
  w.u64(t.pending_seq());
}

TimerImage decode_timer(CheckpointReader& r) {
  TimerImage img;
  img.running = r.boolean();
  img.next_fire = r.time();
  img.seq = r.u64();
  return img;
}

void encode_stats(CheckpointWriter& w, const olsr::AgentStats& s) {
  w.u64(s.hello_sent);
  w.u64(s.hello_recv);
  w.u64(s.tc_sent);
  w.u64(s.tc_recv);
  w.u64(s.msgs_forwarded);
  w.u64(s.data_sent);
  w.u64(s.data_relayed);
  w.u64(s.data_delivered);
  w.u64(s.data_dropped);
  w.u64(s.parse_errors);
}

olsr::AgentStats decode_stats(CheckpointReader& r) {
  olsr::AgentStats s;
  s.hello_sent = r.u64();
  s.hello_recv = r.u64();
  s.tc_sent = r.u64();
  s.tc_recv = r.u64();
  s.msgs_forwarded = r.u64();
  s.data_sent = r.u64();
  s.data_relayed = r.u64();
  s.data_delivered = r.u64();
  s.data_dropped = r.u64();
  s.parse_errors = r.u64();
  return s;
}

}  // namespace

void encode_agent(CheckpointWriter& w, const olsr::Agent& agent) {
  w.boolean(agent.running());

  // Scalars.
  const auto scalars = agent.protocol_scalars();
  w.count(scalars.mprs.size());
  for (const auto n : scalars.mprs) w.node(n);
  w.count(scalars.mpr_selectors.size());
  for (const auto& [n, until] : scalars.mpr_selectors) {
    w.node(n);
    w.time(until);
  }
  w.boolean(scalars.mprs_dirty);
  w.time(scalars.mprs_links_hint);
  w.u16(scalars.msg_seq);
  w.u16(scalars.pkt_seq);
  w.u16(scalars.ansn);
  encode_stats(w, scalars.stats);

  // Link set.
  const auto& links = agent.links();
  w.count(links.slots().size());
  for (const auto& s : links.slots()) {
    w.node(s.tuple.neighbor);
    w.time(s.tuple.asym_until);
    w.time(s.tuple.sym_until);
    w.time(s.tuple.valid_until);
    w.boolean(s.was_symmetric);
  }
  w.time(links.transition_hint());

  // Neighbor table.
  const auto& nbrs = agent.neighbors();
  w.count(nbrs.neighbor_tuples().size());
  for (const auto& t : nbrs.neighbor_tuples()) {
    w.node(t.id);
    w.u8(static_cast<std::uint8_t>(t.willingness));
    w.boolean(t.symmetric);
  }
  w.count(nbrs.two_hop_tuples().size());
  for (const auto& t : nbrs.two_hop_tuples()) {
    w.node(t.via);
    w.node(t.two_hop);
    w.time(t.valid_until);
  }

  // Topology set.
  const auto& topo = agent.topology();
  w.count(topo.tuples().size());
  for (const auto& t : topo.tuples()) {
    w.node(t.dest);
    w.node(t.last_hop);
    w.u16(t.ansn);
    w.time(t.valid_until);
  }
  w.count(topo.latest_ansn().size());
  for (const auto& [n, ansn] : topo.latest_ansn()) {
    w.node(n);
    w.u16(ansn);
  }

  // Duplicate set.
  const auto& dups = agent.duplicates();
  w.count(dups.entries().size());
  for (const auto& e : dups.entries()) {
    w.node(e.originator);
    w.u16(e.seq);
    w.time(e.valid_until);
    w.boolean(e.forwarded);
  }
  w.count(dups.ring().size());
  for (const auto& rs : dups.ring()) {
    w.node(rs.originator);
    w.u16(rs.seq);
    w.time(rs.expiry);
  }

  // Routing table (the knowledge graph is rebuilt from the tables).
  encode_routes(w, agent.routes().persist());

  // MID / HNA association sets.
  const auto& mid = agent.mid_set();
  w.count(mid.tuples().size());
  for (const auto& t : mid.tuples()) {
    w.node(t.iface);
    w.node(t.main);
    w.time(t.valid_until);
  }
  const auto& hna = agent.hna_set();
  w.count(hna.tuples().size());
  for (const auto& [key, until] : hna.tuples()) {
    w.node(key.gateway);
    w.u32(key.network);
    w.u8(key.prefix_len);
    w.time(until);
  }

  // Audit log.
  encode_log(w, agent.log());

  // Pending events: timers + jittered forwards (wire-encoded messages).
  encode_timer(w, agent.hello_timer());
  encode_timer(w, agent.tc_timer());
  encode_timer(w, agent.mid_timer());
  encode_timer(w, agent.housekeeping_timer());
  const auto forwards = agent.pending_forwards();
  w.count(forwards.size());
  for (const auto& f : forwards) {
    const auto bytes =
        olsr::serialize_packet(olsr::OlsrPacket{0, {f.message}});
    w.count(bytes.size());
    w.blob(bytes.data(), bytes.size());
    w.time(f.at);
    w.u64(f.seq);
  }
}

AgentImage decode_agent(CheckpointReader& r, olsr::Agent& agent) {
  AgentImage img;
  img.running = r.boolean();

  olsr::Agent::ProtocolScalars scalars;
  scalars.mprs.resize(r.count());
  for (auto& n : scalars.mprs) n = r.node();
  require_ascending(scalars.mprs, std::identity{}, "MPR set");
  scalars.mpr_selectors.resize(r.count());
  for (auto& [n, until] : scalars.mpr_selectors) {
    n = r.node();
    until = r.time();
  }
  scalars.mprs_dirty = r.boolean();
  scalars.mprs_links_hint = r.time();
  scalars.msg_seq = r.u16();
  scalars.pkt_seq = r.u16();
  scalars.ansn = r.u16();
  scalars.stats = decode_stats(r);
  agent.restore_protocol_scalars(scalars);

  std::vector<olsr::LinkSet::Slot> slots(r.count());
  for (auto& s : slots) {
    s.tuple.neighbor = r.node();
    s.tuple.asym_until = r.time();
    s.tuple.sym_until = r.time();
    s.tuple.valid_until = r.time();
    s.was_symmetric = r.boolean();
  }
  const auto hint = r.time();
  require_ascending(
      slots, [](const olsr::LinkSet::Slot& s) { return s.tuple.neighbor; },
      "link slots");
  agent.restore_links().restore(std::move(slots), hint);

  std::vector<olsr::NeighborTuple> neighbors(r.count());
  for (auto& t : neighbors) {
    t.id = r.node();
    t.willingness = static_cast<olsr::Willingness>(r.u8());
    t.symmetric = r.boolean();
  }
  std::vector<olsr::TwoHopTuple> two_hops(r.count());
  for (auto& t : two_hops) {
    t.via = r.node();
    t.two_hop = r.node();
    t.valid_until = r.time();
  }
  require_ascending(
      neighbors, [](const olsr::NeighborTuple& t) { return t.id; },
      "neighbor tuples");
  require_ascending(
      two_hops,
      [](const olsr::TwoHopTuple& t) { return std::pair{t.via, t.two_hop}; },
      "2-hop tuples");
  // process_hello never stores the agent as its own (2-hop) neighbor.
  const auto self = agent.id();
  if (std::ranges::any_of(neighbors,
                          [self](const auto& t) { return t.id == self; }) ||
      std::ranges::any_of(two_hops, [self](const auto& t) {
        return t.via == self || t.two_hop == self;
      }))
    throw CheckpointError{"neighbor table names the agent itself"};
  agent.restore_neighbors().restore(std::move(neighbors),
                                    std::move(two_hops));

  std::vector<olsr::TopologyTuple> topo(r.count());
  for (auto& t : topo) {
    t.dest = r.node();
    t.last_hop = r.node();
    t.ansn = r.u16();
    t.valid_until = r.time();
  }
  std::vector<std::pair<net::NodeId, std::uint16_t>> ansns(r.count());
  for (auto& [n, ansn] : ansns) {
    n = r.node();
    ansn = r.u16();
  }
  agent.restore_topology().restore(std::move(topo), std::move(ansns));

  std::vector<olsr::DuplicateSet::Entry> entries(r.count());
  for (auto& e : entries) {
    e.originator = r.node();
    e.seq = r.u16();
    e.valid_until = r.time();
    e.forwarded = r.boolean();
  }
  std::deque<olsr::DuplicateSet::RingSlot> ring;
  const std::size_t ring_n = r.count();
  for (std::size_t i = 0; i < ring_n; ++i) {
    olsr::DuplicateSet::RingSlot rs;
    rs.originator = r.node();
    rs.seq = r.u16();
    rs.expiry = r.time();
    ring.push_back(rs);
  }
  agent.restore_duplicates().restore(std::move(entries), std::move(ring));

  agent.restore_routes().restore(decode_routes(r));
  agent.rebuild_knowledge_graph();

  std::vector<olsr::MidSet::Tuple> mid(r.count());
  for (auto& t : mid) {
    t.iface = r.node();
    t.main = r.node();
    t.valid_until = r.time();
  }
  agent.restore_mid_set().restore(std::move(mid));

  std::vector<std::pair<olsr::HnaSet::Key, sim::Time>> hna(r.count());
  for (auto& [key, until] : hna) {
    key.gateway = r.node();
    key.network = r.u32();
    key.prefix_len = r.u8();
    until = r.time();
  }
  agent.restore_hna_set().restore(std::move(hna));

  decode_log(r, agent.log());

  img.hello = decode_timer(r);
  img.tc = decode_timer(r);
  img.mid = decode_timer(r);
  img.housekeeping = decode_timer(r);
  const std::size_t nf = r.count();
  img.forwards.resize(nf);
  for (auto& f : img.forwards) {
    const std::size_t nb = r.count();
    f.message.resize(nb);
    for (std::size_t i = 0; i < nb; ++i) f.message[i] = r.u8();
    f.at = r.time();
    f.seq = r.u64();
  }
  return img;
}

// -------------------------------------------------------------------- trust

void encode_trust(CheckpointWriter& w, const trust::TrustStore& store) {
  w.count(store.trust_rows().size());
  for (const auto& [n, t] : store.trust_rows()) {
    w.node(n);
    w.f64(t);
  }
  w.count(store.interaction_rows().size());
  for (const auto& c : store.interaction_rows()) {
    w.node(c.subject);
    w.i64(c.positive);
    w.i64(c.total);
  }
}

void decode_trust(CheckpointReader& r, trust::TrustStore& store) {
  std::vector<std::pair<net::NodeId, double>> trust(r.count());
  for (auto& [n, t] : trust) {
    n = r.node();
    t = r.f64();
  }
  std::vector<trust::TrustStore::Counter> counters(r.count());
  for (auto& c : counters) {
    c.subject = r.node();
    c.positive = static_cast<int>(r.i64());
    c.total = static_cast<int>(r.i64());
  }
  store.restore(std::move(trust), std::move(counters));
}

// ----------------------------------------------------------------- detector

void encode_detector(CheckpointWriter& w, const core::Detector& detector) {
  const auto p = detector.persist();
  w.time(p.last_scan);
  w.count(p.current_mprs.size());
  for (const auto n : p.current_mprs) w.node(n);
  w.count(p.pending_tcs.size());
  for (const auto& tc : p.pending_tcs) {
    w.time(tc.at);
    w.i64(tc.seq);
    w.count(tc.mprs_then.size());
    for (const auto n : tc.mprs_then) w.node(n);
    w.count(tc.heard_from.size());
    for (const auto n : tc.heard_from) w.node(n);
  }
  w.count(p.last_investigated.size());
  for (const auto& [link, at] : p.last_investigated) {
    w.node(link.first);
    w.node(link.second);
    w.time(at);
  }
  w.count(p.answer_pool.size());
  for (const auto& [link, answers] : p.answer_pool) {
    w.node(link.first);
    w.node(link.second);
    w.count(answers.size());
    for (const auto& a : answers) {
      w.node(a.responder);
      w.f64(a.evidence);
      w.boolean(a.answered);
    }
  }
  w.u64(p.degradation.suppressed_convictions);
  const auto& auditor = p.auditor;
  w.count(auditor.always.size());
  for (const auto n : auditor.always) w.node(n);
  w.count(auditor.current_mprs.size());
  for (const auto n : auditor.current_mprs) w.node(n);
  w.count(auditor.pending.size());
  for (const auto& flood : auditor.pending) {
    w.node(flood.orig);
    w.i64(flood.seq);
    w.time(flood.first_heard);
    w.count(flood.audited.size());
    for (const auto n : flood.audited) w.node(n);
    w.count(flood.credited.size());
    for (const auto n : flood.credited) w.node(n);
  }
  w.count(auditor.window.size());
  for (const auto& tally : auditor.window) {
    w.node(tally.mpr);
    w.u64(tally.expected);
    w.u64(tally.forwarded);
  }
  encode_trust(w, detector.trust_store());
}

void decode_detector(CheckpointReader& r, core::Detector& detector) {
  core::Detector::Persisted p;
  p.last_scan = r.time();
  p.current_mprs.resize(r.count());
  for (auto& n : p.current_mprs) n = r.node();
  const std::size_t ntc = r.count();
  p.pending_tcs.resize(ntc);
  for (auto& tc : p.pending_tcs) {
    tc.at = r.time();
    tc.seq = r.i64();
    const std::size_t nm = r.count();
    for (std::size_t i = 0; i < nm; ++i) tc.mprs_then.insert(r.node());
    const std::size_t nh = r.count();
    for (std::size_t i = 0; i < nh; ++i) tc.heard_from.insert(r.node());
  }
  p.last_investigated.resize(r.count());
  for (auto& [link, at] : p.last_investigated) {
    link.first = r.node();
    link.second = r.node();
    at = r.time();
  }
  p.answer_pool.resize(r.count());
  for (auto& [link, answers] : p.answer_pool) {
    link.first = r.node();
    link.second = r.node();
    answers.resize(r.count());
    for (auto& a : answers) {
      a.responder = r.node();
      a.evidence = r.f64();
      a.answered = r.boolean();
    }
  }
  p.degradation.suppressed_convictions = r.u64();
  auto& auditor = p.auditor;
  auditor.always.resize(r.count());
  for (auto& n : auditor.always) n = r.node();
  auditor.current_mprs.resize(r.count());
  for (auto& n : auditor.current_mprs) n = r.node();
  auditor.pending.resize(r.count());
  for (auto& flood : auditor.pending) {
    flood.orig = r.node();
    flood.seq = r.i64();
    flood.first_heard = r.time();
    flood.audited.resize(r.count());
    for (auto& n : flood.audited) n = r.node();
    flood.credited.resize(r.count());
    for (auto& n : flood.credited) n = r.node();
  }
  auditor.window.resize(r.count());
  for (auto& tally : auditor.window) {
    tally.mpr = r.node();
    tally.expected = r.u64();
    tally.forwarded = r.u64();
  }
  detector.restore(std::move(p));
  decode_trust(r, detector.trust_store());
}

// ----------------------------------------------------------- investigations

void encode_investigations(CheckpointWriter& w,
                           const core::InvestigationManager& inv) {
  w.u32(inv.next_id());
  const auto& s = inv.stats();
  w.u64(s.queries_sent);
  w.u64(s.answers_sent);
  w.u64(s.answers_received);
  w.u64(s.retries);
  w.u64(s.route_failures);
}

void decode_investigations(CheckpointReader& r,
                           core::InvestigationManager& inv) {
  const auto next_id = r.u32();
  core::InvestigationStats s;
  s.queries_sent = r.u64();
  s.answers_sent = r.u64();
  s.answers_received = r.u64();
  s.retries = r.u64();
  s.route_failures = r.u64();
  inv.restore_ids(next_id, s);
}

// ------------------------------------------------------------------- medium

void encode_medium(CheckpointWriter& w, const net::Medium& medium) {
  const auto& s = medium.stats();
  w.u64(s.frames_sent);
  w.u64(s.deliveries);
  w.u64(s.losses);
  w.u64(s.collisions);
  w.u64(s.bytes_sent);
  w.u64(s.dropped_down);
  const auto ids = medium.attached_ids();
  w.count(ids.size());
  for (const auto id : ids) {
    w.node(id);
    w.boolean(medium.is_up(id));
    w.f64(medium.loss_override(id));
    w.u32(medium.partition(id));
  }
  const auto flights = medium.in_flight();
  w.count(flights.size());
  for (const auto& f : flights) {
    w.node(f.receiver);
    w.node(f.transmitter);
    w.node(f.link_dest);
    w.count(f.payload.size());
    w.blob(f.payload.data(), f.payload.size());
    w.time(f.sent_at);
    w.time(f.arrival);
    w.u64(f.seq);
  }
}

MediumImage decode_medium(CheckpointReader& r, net::Medium& medium) {
  MediumImage img;
  img.stats.frames_sent = r.u64();
  img.stats.deliveries = r.u64();
  img.stats.losses = r.u64();
  img.stats.collisions = r.u64();
  img.stats.bytes_sent = r.u64();
  img.stats.dropped_down = r.u64();
  const std::size_t hosts = r.count();
  for (std::size_t i = 0; i < hosts; ++i) {
    const net::NodeId id = r.node();
    medium.set_up(id, r.boolean());
    medium.set_loss_override(id, r.f64());
    medium.set_partition(id, r.u32());
  }
  medium.restore_stats(img.stats);
  const std::size_t n = r.count();
  img.flights.resize(n);
  for (auto& f : img.flights) {
    f.receiver = r.node();
    f.transmitter = r.node();
    f.link_dest = r.node();
    f.payload = r.blob();
    f.sent_at = r.time();
    f.arrival = r.time();
    f.seq = r.u64();
  }
  return img;
}

}  // namespace manet::faults
