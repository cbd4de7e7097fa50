#include "olsr/agent.hpp"

#include <algorithm>
#include <optional>

#include "obs/obs.hpp"
#include "olsr/wire.hpp"
#include "sim/slab.hpp"

namespace manet::olsr {
namespace {

/// A received frame's parse, with per message the lists its receivers
/// read (empty for all but HELLOs); nullopt for bytes that do not parse.
struct Frame {
  OlsrPacket packet;
  std::vector<HelloLists> hellos;
};
using DecodedFrame = std::optional<Frame>;

/// Every receiver of a frame gets the same bytes (a collision drops a
/// frame, it never alters it), so the first receiver parses them into the
/// payload's decode slot and the others read that parse.
const DecodedFrame& decode_frame(const net::Packet& packet) {
  return packet.data.decoded<DecodedFrame>(
      [](const net::Bytes& bytes) -> DecodedFrame {
        obs::hit(obs::Hot::kFramesDecoded);
        Frame frame;
        try {
          frame.packet = parse_packet(bytes);
        } catch (const WireError&) {
          return std::nullopt;
        }
        for (const auto& m : frame.packet.messages) {
          const auto* hello = m.as_hello();
          frame.hellos.push_back(hello ? HelloLists{*hello} : HelloLists{});
        }
        return frame;
      });
}

}  // namespace

Agent::Agent(sim::Engine& sim, net::Medium& medium, NodeId id,
             Config config, AgentHooks* hooks)
    : sim_{sim},
      medium_{medium},
      id_{id},
      config_{std::move(config)},
      hooks_{hooks},
      log_{config_.log_capacity},
      neighbors_{id},
      hello_timer_{sim, kHelloInterval, kMaxJitter,
                   [this] { emit_hello(); }},
      tc_timer_{sim, kTcInterval, kMaxJitter,
                [this] { emit_tc(); }},
      mid_timer_{sim, kMidInterval, kMaxJitter,
                 [this] {
                   emit_mid();
                   emit_hna();
                 }},
      housekeeping_timer_{sim, kHousekeepingInterval, sim::Duration{},
                          [this] { housekeep(); }} {}

Agent::~Agent() { stop(); }

void Agent::start() {
  if (running_) return;
  running_ = true;
  auto handler = [this](const net::Packet& p) { handle_packet(p); };
  if (medium_.attached(id_)) {
    medium_.set_handler(id_, std::move(handler));
  } else {
    medium_.attach(id_, net::Position{}, std::move(handler));
  }
  hello_timer_.start();
  tc_timer_.start();
  if (!config_.extra_interfaces.empty() || !config_.hna_networks.empty())
    mid_timer_.start();
  housekeeping_timer_.start();
  write_log(logging::Event::kDaemonStart);
}

void Agent::stop() {
  if (!running_) return;
  running_ = false;
  hello_timer_.stop();
  tc_timer_.stop();
  mid_timer_.stop();
  housekeeping_timer_.stop();
  if (medium_.attached(id_)) medium_.set_handler(id_, {});
  write_log(logging::Event::kDaemonStop);
}

std::vector<NodeId> Agent::mpr_selectors() const {
  std::vector<NodeId> out;
  for (const auto& [n, until] : mpr_selectors_)
    if (until > sim_.now()) out.push_back(n);
  return out;
}

bool Agent::is_symmetric_neighbor(NodeId n) const {
  return links_.is_symmetric(sim_.now(), n);
}

bool Agent::is_mpr(NodeId n) const {
  return std::binary_search(mprs_.begin(), mprs_.end(), n);
}

std::size_t Agent::apply_delta() {
  // Edges touching ourselves come exclusively from the link set (see
  // sync_self_edges). Additions go first, so a removal never finds its
  // arc's count already at zero.
  std::size_t changed = 0;
  for (const auto& [a, b] : delta_.added)
    if (a != id_ && b != id_) changed += graph_.add_edge(a, b);
  for (const auto& [a, b] : delta_.removed)
    if (a != id_ && b != id_) changed += graph_.remove_edge(a, b);
  delta_.clear();
  return changed;
}

std::size_t Agent::sync_self_edges(KnowledgeGraph& g) const {
  // RFC 3626 §10 requires the first hop of any route to be a *symmetric*
  // neighbor, so stale TC tuples must not resurrect a dead local link: our
  // own adjacency is exactly the symmetric link set, read at now because
  // link symmetry lapses with time alone.
  links_.symmetric_neighbors(sim_.now(), sym_scratch_);
  const auto self = g.slot_of(id_);
  const auto own = self == KnowledgeGraph::kNpos
                       ? std::span<const KnowledgeGraph::Arc>{}
                       : g.arcs_from(self);
  const auto same_id = [&g](const KnowledgeGraph::Arc& a, NodeId n) {
    return g.id_at(a.to) == n;
  };
  if (std::equal(own.begin(), own.end(), sym_scratch_.begin(),
                 sym_scratch_.end(), same_id))
    return 0;
  std::vector<NodeId> lapsed;
  for (const auto& a : own)
    if (!std::binary_search(sym_scratch_.begin(), sym_scratch_.end(),
                            g.id_at(a.to)))
      lapsed.push_back(g.id_at(a.to));
  std::size_t changed = 0;
  for (const auto n : lapsed) changed += g.remove_edge(id_, n);
  for (const auto n : sym_scratch_)
    if (g.refs(id_, n) == 0) changed += g.add_edge(id_, n);
  return changed;
}

void Agent::refresh_graph() {
  auto changed = apply_delta();
  const auto now = sim_.now();
  if (now >= self_edges_due_) {
    changed += sync_self_edges(graph_);
    self_edges_due_ = LinkSet::kNoTransition;
    for (const auto& s : links_.slots())
      if (s.tuple.symmetric(now))
        self_edges_due_ = std::min(self_edges_due_, s.tuple.sym_until);
  }
  if (changed > 0) obs::hit(obs::Hot::kGraphArcUpdates, changed);
}

void Agent::rebuild_knowledge_graph() {
  graph_.clear();
  delta_.clear();
  self_edges_due_ = sim::Time{};
  for (const auto& t : neighbors_.two_hop_tuples())
    delta_.added.emplace_back(t.via, t.two_hop);
  for (const auto& t : topology_.tuples())
    delta_.added.emplace_back(t.last_hop, t.dest);
  apply_delta();
}

KnowledgeGraph Agent::knowledge_graph() const {
  KnowledgeGraph g = graph_;
  sync_self_edges(g);
  return g;
}

std::optional<std::vector<NodeId>> Agent::path_avoiding(
    NodeId dest, std::span<const NodeId> avoid) const {
  links_.symmetric_neighbors(sim_.now(), sym_scratch_);
  return RoutingTable::shortest_path(graph_, id_, dest, avoid, sym_scratch_,
                                     path_scratch_);
}

// ---------------------------------------------------------------- emission

void Agent::emit_hello() {
  if (hooks_) hooks_->on_tick();

  HelloMessage h;
  h.htime = kHelloInterval;
  h.willingness = config_.willingness;
  const auto now = sim_.now();

  // Every link tuple is advertised with its current state (§6.2):
  // SYM links carry the neighbor type (MPR if selected), heard-only links
  // are advertised ASYM so the peer can upgrade them to symmetric.
  links_.symmetric_neighbors(now, sym_scratch_);
  links_.asymmetric_neighbors(now, asym_scratch_);
  for (auto n : sym_scratch_) {
    const auto nt =
        is_mpr(n) ? NeighborType::kMprNeigh : NeighborType::kSymNeigh;
    h.add(LinkType::kSym, nt, n);
  }
  for (auto n : asym_scratch_) h.add(LinkType::kAsym, NeighborType::kNotNeigh, n);

  if (hooks_) hooks_->on_build_hello(h);

  Message m;
  m.header.type = MessageType::kHello;
  m.header.vtime = kNeighbHoldTime;
  m.header.originator = id_;
  m.header.ttl = 1;  // HELLOs are never forwarded (§6.1)
  m.header.seq_num = next_msg_seq();
  m.body = h;

  write_log(logging::Event::kHelloSent, m.header.seq_num,
            h.symmetric_neighbors(), asym_scratch_, h.willingness);

  ++stats_.hello_sent;
  broadcast_message(std::move(m));
}

void Agent::emit_tc() {
  const auto selectors = mpr_selectors();
  if (selectors.empty()) return;  // §9.3: only MPRs originate TCs

  TcMessage tc;
  tc.ansn = ansn_;
  tc.advertised = selectors;
  if (hooks_) hooks_->on_build_tc(tc);

  Message m;
  m.header.type = MessageType::kTc;
  m.header.vtime = kTopHoldTime;
  m.header.originator = id_;
  m.header.ttl = kDefaultTtl;
  m.header.seq_num = next_msg_seq();
  m.body = tc;

  write_log(logging::Event::kTcSent, m.header.seq_num, tc.ansn, tc.advertised);

  ++stats_.tc_sent;
  duplicates_.record(sim_.now(), id_, m.header.seq_num, true, kDupHoldTime);
  broadcast_message(std::move(m));
}

void Agent::emit_mid() {
  if (config_.extra_interfaces.empty()) return;
  MidMessage mid;
  mid.interfaces = config_.extra_interfaces;

  Message m;
  m.header.type = MessageType::kMid;
  m.header.vtime = kMidHoldTime;
  m.header.originator = id_;
  m.header.ttl = kDefaultTtl;
  m.header.seq_num = next_msg_seq();
  m.body = mid;

  write_log(logging::Event::kMidSent, m.header.seq_num, mid.interfaces);

  duplicates_.record(sim_.now(), id_, m.header.seq_num, true, kDupHoldTime);
  broadcast_message(std::move(m));
}

void Agent::emit_hna() {
  if (config_.hna_networks.empty()) return;
  HnaMessage hna;
  hna.entries = config_.hna_networks;

  Message m;
  m.header.type = MessageType::kHna;
  m.header.vtime = kHnaHoldTime;
  m.header.originator = id_;
  m.header.ttl = kDefaultTtl;
  m.header.seq_num = next_msg_seq();
  m.body = hna;

  write_log(logging::Event::kHnaSent, m.header.seq_num, hna.entries.size());

  duplicates_.record(sim_.now(), id_, m.header.seq_num, true, kDupHoldTime);
  broadcast_message(std::move(m));
}

void Agent::broadcast_message(Message message) {
  OlsrPacket p;
  p.seq_num = next_pkt_seq();
  p.messages.push_back(std::move(message));
  medium_.broadcast(id_, serialize_packet(p));
}

// ---------------------------------------------------------------- reception

void Agent::handle_packet(const net::Packet& packet) {
  const auto& parsed = decode_frame(packet);
  if (!parsed) {
    ++stats_.parse_errors;
    write_log(logging::Event::kPacketParseError, packet.transmitter);
    return;
  }

  for (std::size_t i = 0; i < parsed->packet.messages.size(); ++i) {
    const auto& m = parsed->packet.messages[i];
    if (hooks_) hooks_->on_receive(m);
    if (m.header.originator == id_) {
      // A retransmission of our own message: evidence that the transmitter
      // actually forwards our traffic (used by E2 drop detection).
      if (m.header.hop_count > 0) {
        write_log(logging::Event::kOwnFwdHeard, packet.transmitter,
                  m.header.seq_num, m.header.type);
      }
      continue;
    }
    switch (m.header.type) {
      case MessageType::kHello:
        process_hello(m, parsed->hellos[i]);
        break;
      case MessageType::kTc:
        process_tc(m, packet.transmitter);
        break;
      case MessageType::kMid:
        process_mid(m, packet.transmitter);
        break;
      case MessageType::kHna:
        process_hna(m, packet.transmitter);
        break;
      case MessageType::kData:
        process_data(m, packet.transmitter);
        break;
    }
  }
}

void Agent::process_hello(const Message& m, const HelloLists& lists) {
  const auto* hello = m.as_hello();
  if (!hello) return;
  // HELLOs are link-local (never forwarded), so the originator IS the
  // transmitter; link sensing keys off the originator address.
  const NodeId from = m.header.originator;
  const auto now = sim_.now();
  ++stats_.hello_recv;
  obs::hit(obs::Hot::kHelloEntries, lists.entries);

  // Link sensing: does the HELLO list us, and with which code?
  bool lists_us = false;
  bool lost_us = false;
  bool selects_us_mpr = false;
  for (const auto& [code, addrs] : hello->link_groups) {
    const bool has_us =
        std::find(addrs.begin(), addrs.end(), id_) != addrs.end();
    if (!has_us) continue;
    if (link_type_of(code) == LinkType::kLost) {
      lost_us = true;
    } else {
      lists_us = true;
    }
    if (neighbor_type_of(code) == NeighborType::kMprNeigh) selects_us_mpr = true;
  }

  const auto change =
      links_.on_hello(now, from, lists_us, lost_us, m.header.vtime);
  const auto link = links_.get(from);
  const bool now_sym = link && link->symmetric(now);
  // A flip moves the symmetric set; a refresh can still shorten L_SYM_time
  // (a shorter vtime) without one.
  if (change == LinkSet::Change::kBecameSym || change == LinkSet::Change::kLost)
    self_edges_due_ = sim::Time{};
  if (now_sym) self_edges_due_ = std::min(self_edges_due_, link->sym_until);
  bool tables_changed = change != LinkSet::Change::kNone;
  if (neighbors_.upsert_neighbor(from, hello->willingness, now_sym))
    tables_changed = true;

  write_log(logging::Event::kHelloRecv, from, m.header.seq_num, lists.sym,
            lists.asym, lists_us, hello->willingness);

  if (change == LinkSet::Change::kBecameSym) {
    write_log(logging::Event::kLinkSym, from);
  } else if (change == LinkSet::Change::kLost) {
    write_log(logging::Event::kLinkLost, from);
  }

  // 2-hop set (§8.1.1): symmetric neighbors advertised by a symmetric
  // neighbor, ourselves excluded. The list goes in ascending, so a repeat
  // of the previous advertisement matches the held row as it stands.
  if (now_sym) {
    two_hop_scratch_.clear();
    for (auto n : lists.sym_sorted)
      if (n != id_) two_hop_scratch_.push_back(n);
    if (neighbors_.set_two_hops_via(from, two_hop_scratch_,
                                    now + m.header.vtime, &delta_)) {
      tables_changed = true;
      write_log(logging::Event::kTwoHopUpdate, from,
                neighbors_.two_hops_via(from));
    }
  }

  // MPR selector set (§8.4.1).
  const auto* until = sim::slab_get(mpr_selectors_, from);
  const bool was_selector = until && *until > sim_.now();
  if (selects_us_mpr && now_sym) {
    sim::slab_entry(mpr_selectors_, from) = sim_.now() + m.header.vtime;
    if (!was_selector) {
      ++ansn_;
      write_log(logging::Event::kMprSelectorAdd, from);
    }
  } else if (was_selector && lists_us && !selects_us_mpr) {
    sim::slab_erase(mpr_selectors_, from);
    ++ansn_;
    write_log(logging::Event::kMprSelectorDel, from);
  }

  // MPR selector changes do not feed MPR selection or routing, so they do
  // not raise the dirty flag.
  if (tables_changed) mprs_dirty_ = true;
  maybe_recompute_mprs();
  update_routes();
}

void Agent::process_tc(const Message& m, NodeId transmitter) {
  const auto* tc = m.as_tc();
  if (!tc) return;
  // §9.5 rule 1: discard unless the sender interface is a symmetric neighbor.
  if (!links_.is_symmetric(sim_.now(), transmitter)) return;
  // Forwarding-audit raw material: a neighbor re-broadcasting somebody
  // else's TC is direct evidence it forwards. Logged before the duplicate
  // check — re-hearings of an already-seen flood are exactly the MPR
  // re-broadcasts the audit credits, and they produce no tc_recv record.
  if (config_.log_fwd_echo && transmitter != m.header.originator) {
    write_log(logging::Event::kFwdEcho, transmitter, m.header.originator,
              m.header.seq_num);
  }
  // The one duplicate lookup of this copy. Nothing below touches the
  // duplicate set before maybe_forward records into it.
  auto* dup = duplicates_.find(m.header.originator, m.header.seq_num);
  if (dup != nullptr) {
    maybe_forward(m, transmitter, dup);
    return;
  }
  ++stats_.tc_recv;

  const NodeId origin = mid_set_.main_address_of(m.header.originator);
  const bool applied = topology_.on_tc(sim_.now(), origin, tc->ansn,
                                       tc->advertised, m.header.vtime,
                                       &delta_);
  write_log(logging::Event::kTcRecv, origin, transmitter, m.header.seq_num,
            tc->ansn, tc->advertised, applied);

  update_routes();
  maybe_forward(m, transmitter, nullptr);
}

void Agent::process_mid(const Message& m, NodeId transmitter) {
  const auto* mid = m.as_mid();
  if (!mid) return;
  if (!links_.is_symmetric(sim_.now(), transmitter)) return;
  auto* dup = duplicates_.find(m.header.originator, m.header.seq_num);
  if (dup == nullptr) {
    mid_set_.on_mid(sim_.now(), m.header.originator, mid->interfaces,
                    m.header.vtime);
    write_log(logging::Event::kMidRecv, m.header.originator, mid->interfaces);
  }
  maybe_forward(m, transmitter, dup);
}

void Agent::process_hna(const Message& m, NodeId transmitter) {
  const auto* hna = m.as_hna();
  if (!hna) return;
  if (!links_.is_symmetric(sim_.now(), transmitter)) return;
  auto* dup = duplicates_.find(m.header.originator, m.header.seq_num);
  if (dup == nullptr) {
    hna_set_.on_hna(sim_.now(), m.header.originator, hna->entries,
                    m.header.vtime);
    write_log(logging::Event::kHnaRecv, m.header.originator,
              hna->entries.size());
  }
  maybe_forward(m, transmitter, dup);
}

void Agent::maybe_forward(const Message& m, NodeId transmitter,
                          DuplicateSet::Tuple* dup) {
  // Default forwarding algorithm (§3.4.1). A copy seen before but not
  // retransmitted is considered again, a departure from §3.4 step 4.1
  // recorded in ROADMAP.md (Agent.ReconsidersSeenCopyFromAnotherSelector).
  // Step 1, a transmitter that is no symmetric neighbor, is every
  // caller's first check.
  if (dup != nullptr && dup->forwarded) return;

  const auto* until = sim::slab_get(mpr_selectors_, transmitter);
  const bool transmitter_selected_us = until && *until > sim_.now();

  const bool forward =
      transmitter_selected_us && m.header.ttl > 1;
  duplicates_.record(sim_.now(), m.header.originator, m.header.seq_num,
                     forward, kDupHoldTime, dup);
  if (!forward) return;

  Message copy = m;
  copy.header.ttl = static_cast<std::uint8_t>(copy.header.ttl - 1);
  copy.header.hop_count = static_cast<std::uint8_t>(copy.header.hop_count + 1);

  if (hooks_) {
    if (!hooks_->should_forward(copy)) {
      // A silent drop: the daemon of an attacker does not log its own
      // misbehaviour; detection must come from neighbors' logs.
      return;
    }
    hooks_->on_forward(copy);
  }

  ++stats_.msgs_forwarded;
  write_log(logging::Event::kMsgFwd, m.header.type, m.header.originator,
            m.header.seq_num);

  // Small forwarding jitter (§3.4.1 note).
  const auto delay = sim::Duration::from_us(sim_.rng().uniform_int(0, 100'000));
  arm_forward(std::move(copy), sim_.now() + delay);
}

void Agent::arm_forward(Message copy, sim::Time at) {
  auto slot = static_cast<std::uint32_t>(forwards_.size());
  if (free_forwards_.empty()) {
    forwards_.emplace_back();
  } else {
    slot = free_forwards_.back();
    free_forwards_.pop_back();
  }
  auto& f = forwards_[slot];
  f.live = true;
  f.pending.message = std::move(copy);
  f.pending.at = at;
  // schedule_at(now + delay) is what both engines' schedule(delay) resolves
  // to, so routing every forward through here is trace-neutral.
  f.pending.seq =
      sim_.schedule_at(at, [this, slot] { fire_forward(slot); }).raw();
}

void Agent::fire_forward(std::uint32_t slot) {
  auto& f = forwards_[slot];
  f.live = false;
  free_forwards_.push_back(slot);
  if (running_) broadcast_message(std::move(f.pending.message));
}

std::vector<Agent::PendingForward> Agent::pending_forwards() const {
  std::vector<PendingForward> out;
  for (const auto& f : forwards_)
    if (f.live) out.push_back(f.pending);
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  });
  return out;
}

void Agent::restore_pending_forward(Message message, sim::Time at) {
  arm_forward(std::move(message), at);
}

void Agent::reset_tables() {
  links_ = LinkSet{};
  neighbors_ = NeighborTable{id_};
  topology_ = TopologySet{};
  duplicates_ = DuplicateSet{};
  mid_set_ = MidSet{};
  hna_set_ = HnaSet{};
  graph_.clear();
  delta_.clear();
  routing_ = RoutingTable{};
  mprs_.clear();
  mpr_selectors_.clear();
  mprs_dirty_ = true;
  mprs_links_hint_ = sim::Time{};
  mpr_rows_stamp_ = 0;
  self_edges_due_ = sim::Time{};
  // msg_seq_/pkt_seq_/ansn_ intentionally keep counting (see header).
  write_log(logging::Event::kTablesReset);
}

void Agent::resume_running() {
  if (running_) return;
  running_ = true;
  auto handler = [this](const net::Packet& p) { handle_packet(p); };
  if (medium_.attached(id_)) {
    medium_.set_handler(id_, std::move(handler));
  } else {
    medium_.attach(id_, net::Position{}, std::move(handler));
  }
}

Agent::ProtocolScalars Agent::protocol_scalars() const {
  ProtocolScalars s;
  s.mprs = mprs_;
  s.mpr_selectors = mpr_selectors_;
  s.mprs_dirty = mprs_dirty_;
  s.mprs_links_hint = mprs_links_hint_;
  s.msg_seq = msg_seq_;
  s.pkt_seq = pkt_seq_;
  s.ansn = ansn_;
  s.stats = stats_;
  return s;
}

void Agent::restore_protocol_scalars(const ProtocolScalars& s) {
  mprs_ = s.mprs;
  mpr_selectors_ = s.mpr_selectors;
  mprs_dirty_ = s.mprs_dirty;
  mprs_links_hint_ = s.mprs_links_hint;
  mpr_rows_stamp_ = 0;
  msg_seq_ = s.msg_seq;
  pkt_seq_ = s.pkt_seq;
  ansn_ = s.ansn;
  stats_ = s.stats;
}

// ---------------------------------------------------------------- data plane

Agent::SendStatus Agent::send_data(NodeId dest, std::uint16_t protocol,
                                   std::vector<std::uint8_t> payload,
                                   std::span<const NodeId> avoid) {
  refresh_graph();
  auto path = path_avoiding(dest, avoid);
  if (!path) {
    write_log(logging::Event::kDataNoRoute, dest);
    return SendStatus::kNoRoute;
  }
  send_data_via(std::move(*path), protocol, std::move(payload));
  return SendStatus::kSent;
}

void Agent::send_data_via(std::vector<NodeId> route, std::uint16_t protocol,
                          std::vector<std::uint8_t> payload) {
  if (route.empty()) return;
  DataMessage d;
  d.source = id_;
  d.destination = route.back();
  d.protocol = protocol;
  d.payload = std::move(payload);
  const NodeId next = route.front();
  d.route.assign(route.begin() + 1, route.end());

  Message m;
  m.header.type = MessageType::kData;
  m.header.vtime = kTopHoldTime;
  m.header.originator = id_;
  m.header.ttl = kDefaultTtl;
  m.header.seq_num = next_msg_seq();

  write_log(logging::Event::kDataSent, d.destination, protocol, route);

  m.body = std::move(d);
  ++stats_.data_sent;
  OlsrPacket p;
  p.seq_num = next_pkt_seq();
  p.messages.push_back(std::move(m));
  medium_.unicast(id_, next, serialize_packet(p));
}

void Agent::process_data(const Message& m, NodeId transmitter) {
  const auto* data = m.as_data();
  if (!data) return;

  if (data->destination == id_) {
    ++stats_.data_delivered;
    write_log(logging::Event::kDataRecv, data->source, data->protocol,
              transmitter);
    if (data_handler_) data_handler_(*data);
    return;
  }

  if (data->route.empty() || m.header.ttl <= 1) {
    ++stats_.data_dropped;
    write_log(logging::Event::kDataDrop, data->source);
    return;
  }

  if (hooks_ && !hooks_->should_relay_data(*data)) {
    // Attacker silently discards; no log (its own daemon hides misconduct).
    ++stats_.data_dropped;
    return;
  }

  Message copy = m;
  auto& d = std::get<DataMessage>(copy.body);
  const NodeId next = d.route.front();
  d.route.erase(d.route.begin());
  d.trace.push_back(id_);
  copy.header.ttl = static_cast<std::uint8_t>(copy.header.ttl - 1);
  copy.header.hop_count = static_cast<std::uint8_t>(copy.header.hop_count + 1);

  ++stats_.data_relayed;
  write_log(logging::Event::kDataFwd, d.source, d.destination, next);

  OlsrPacket p;
  p.seq_num = next_pkt_seq();
  p.messages.push_back(std::move(copy));
  medium_.unicast(id_, next, serialize_packet(p));
}

// ---------------------------------------------------------------- upkeep

void Agent::housekeep() {
  const auto now = sim_.now();
  const auto lost = links_.expire(now);
  if (!lost.empty()) {
    mprs_dirty_ = true;
    self_edges_due_ = sim::Time{};
  }
  for (auto n : lost) {
    neighbors_.remove_neighbor(n, &delta_);
    write_log(logging::Event::kLinkLost, n);
  }
  if (neighbors_.expire_two_hops(now, &delta_)) mprs_dirty_ = true;
  topology_.expire(now, &delta_);
  duplicates_.expire(now);
  mid_set_.expire(now);
  hna_set_.expire(now);
  for (auto it = mpr_selectors_.begin(); it != mpr_selectors_.end();) {
    if (it->second <= now) {
      write_log(logging::Event::kMprSelectorDel, it->first);
      it = mpr_selectors_.erase(it);
      ++ansn_;
    } else {
      ++it;
    }
  }
  maybe_recompute_mprs();
  update_routes();
}

void Agent::maybe_recompute_mprs() {
  const auto now = sim_.now();
  if (!mprs_dirty_ && now < mprs_links_hint_) return;
  recompute_mprs();
  mprs_dirty_ = false;
  mprs_links_hint_ = links_.next_transition(now);
}

void Agent::recompute_mprs() {
  // The heuristic is a pure function of N and the reach rows: with both
  // as at its last run, it would reproduce mprs_. N pairs each symmetric
  // link with its neighbor's willingness in one walk (both ascend by id).
  links_.symmetric_neighbors(sim_.now(), sym_scratch_);
  auto& n_now = mpr_neighbors_scratch_;
  n_now.clear();
  const auto& tuples = neighbors_.neighbor_tuples();
  auto t = tuples.begin();
  for (auto n : sym_scratch_) {
    while (t != tuples.end() && t->id < n) ++t;
    n_now.emplace_back(n, t != tuples.end() && t->id == n
                              ? t->willingness
                              : Willingness::kDefault);
  }
  if (neighbors_.rows_stamp() == mpr_rows_stamp_ && n_now == mpr_neighbors_)
    return;
  mpr_neighbors_.swap(n_now);
  mpr_rows_stamp_ = neighbors_.rows_stamp();

  obs::hit(obs::Hot::kMprRuns);
  select_mprs(mpr_neighbors_, neighbors_.reach_rows(), mpr_scratch_,
              fresh_mprs_);
  if (fresh_mprs_ == mprs_) return;

  std::vector<NodeId> added, removed;
  std::set_difference(fresh_mprs_.begin(), fresh_mprs_.end(), mprs_.begin(),
                      mprs_.end(), std::back_inserter(added));
  std::set_difference(mprs_.begin(), mprs_.end(), fresh_mprs_.begin(),
                      fresh_mprs_.end(), std::back_inserter(removed));

  mprs_ = fresh_mprs_;
  obs::hit(obs::Hot::kMprRecomputes);
  write_log(logging::Event::kMprChanged, mprs_, added, removed);
}

void Agent::update_routes() {
  refresh_graph();
  if (routing_.current(id_, graph_)) return;
  const auto [added, removed] = routing_.recompute(id_, graph_);
  graph_.restart_log();  // the next recompute reads changes from here
  if (added.empty() && removed.empty()) return;
  obs::hit(obs::Hot::kRouteRecomputes);
  obs::instant(obs::SpanName::kRoutingRecompute, sim_.now(), id_.value());
  write_log(logging::Event::kRoutesChanged, added, removed, routing_.size());
}

}  // namespace manet::olsr
