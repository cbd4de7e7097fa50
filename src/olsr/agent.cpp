#include "olsr/agent.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "olsr/wire.hpp"

namespace manet::olsr {

Agent::Agent(sim::Engine& sim, net::Medium& medium, NodeId id,
             Config config, AgentHooks* hooks)
    : sim_{sim},
      medium_{medium},
      id_{id},
      config_{std::move(config)},
      hooks_{hooks},
      log_{config_.log_capacity},
      neighbors_{id},
      hello_timer_{sim, config_.hello_interval, config_.jitter,
                   [this] { emit_hello(); }},
      tc_timer_{sim, config_.tc_interval, config_.jitter,
                [this] { emit_tc(); }},
      mid_timer_{sim, config_.mid_interval, config_.jitter,
                 [this] {
                   emit_mid();
                   emit_hna();
                 }},
      housekeeping_timer_{sim, config_.housekeeping_interval, sim::Duration{},
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
  log_.append(make_record("daemon_start"));
}

void Agent::stop() {
  if (!running_) return;
  running_ = false;
  hello_timer_.stop();
  tc_timer_.stop();
  mid_timer_.stop();
  housekeeping_timer_.stop();
  if (medium_.attached(id_)) medium_.set_handler(id_, {});
  log_.append(make_record("daemon_stop"));
}

logging::LogRecord Agent::make_record(std::string event) const {
  logging::LogRecord r;
  r.time = sim_.now();
  r.node = id_;
  r.event = std::move(event);
  return r;
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
  const auto changed = apply_delta() + sync_self_edges(graph_);
  if (changed > 0) obs::hit(obs::Hot::kGraphArcUpdates, changed);
}

void Agent::rebuild_knowledge_graph() {
  graph_.clear();
  delta_.clear();
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

// ---------------------------------------------------------------- emission

void Agent::emit_hello() {
  if (hooks_) hooks_->on_tick();

  HelloMessage h;
  h.htime = config_.hello_interval;
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
  m.header.vtime = config_.neighb_hold;
  m.header.originator = id_;
  m.header.ttl = 1;  // HELLOs are never forwarded (§6.1)
  m.header.seq_num = next_msg_seq();
  m.body = h;

  auto rec = make_record("hello_sent");
  rec.with("seq", static_cast<std::int64_t>(m.header.seq_num))
      .with("neigh", logging::join_node_list(h.symmetric_neighbors()))
      .with("asym", logging::join_node_list(asym_scratch_))
      .with("will", static_cast<std::int64_t>(h.willingness));
  log_.append(std::move(rec));

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
  m.header.vtime = config_.top_hold;
  m.header.originator = id_;
  m.header.ttl = kDefaultTtl;
  m.header.seq_num = next_msg_seq();
  m.body = tc;

  auto rec = make_record("tc_sent");
  rec.with("seq", static_cast<std::int64_t>(m.header.seq_num))
      .with("ansn", static_cast<std::int64_t>(tc.ansn))
      .with("adv", logging::join_node_list(tc.advertised));
  log_.append(std::move(rec));

  ++stats_.tc_sent;
  duplicates_.record(sim_.now(), id_, m.header.seq_num, true,
                     config_.dup_hold);
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

  auto rec = make_record("mid_sent");
  rec.with("seq", static_cast<std::int64_t>(m.header.seq_num))
      .with("ifaces", logging::join_node_list(mid.interfaces));
  log_.append(std::move(rec));

  duplicates_.record(sim_.now(), id_, m.header.seq_num, true,
                     config_.dup_hold);
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

  auto rec = make_record("hna_sent");
  rec.with("seq", static_cast<std::int64_t>(m.header.seq_num))
      .with("count", static_cast<std::int64_t>(hna.entries.size()));
  log_.append(std::move(rec));

  duplicates_.record(sim_.now(), id_, m.header.seq_num, true,
                     config_.dup_hold);
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
  OlsrPacket parsed;
  try {
    parsed = parse_packet(packet.payload());
  } catch (const WireError&) {
    ++stats_.parse_errors;
    auto rec = make_record("packet_parse_error");
    rec.with("from", packet.transmitter);
    log_.append(std::move(rec));
    return;
  }

  for (const auto& m : parsed.messages) {
    if (hooks_) hooks_->on_receive(m);
    if (m.header.originator == id_) {
      // A retransmission of our own message: evidence that the transmitter
      // actually forwards our traffic (used by E2 drop detection).
      if (m.header.hop_count > 0) {
        auto rec = make_record("own_fwd_heard");
        rec.with("by", packet.transmitter)
            .with("seq", static_cast<std::int64_t>(m.header.seq_num))
            .with("type",
                  static_cast<std::int64_t>(static_cast<int>(m.header.type)));
        log_.append(std::move(rec));
      }
      continue;
    }
    switch (m.header.type) {
      case MessageType::kHello:
        process_hello(m, packet.transmitter);
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

void Agent::process_hello(const Message& m, NodeId /*transmitter*/) {
  const auto* hello = m.as_hello();
  if (!hello) return;
  // HELLOs are link-local (never forwarded), so the originator IS the
  // transmitter; link sensing keys off the originator address.
  const NodeId from = m.header.originator;
  ++stats_.hello_recv;

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
      links_.on_hello(sim_.now(), from, lists_us, lost_us, m.header.vtime);
  const bool now_sym = links_.is_symmetric(sim_.now(), from);
  bool tables_changed = change != LinkSet::Change::kNone;
  if (neighbors_.upsert_neighbor(from, hello->willingness, now_sym))
    tables_changed = true;

  const auto advertised_sym = hello->symmetric_neighbors();
  std::vector<NodeId> advertised_asym;
  for (const auto& [code, addrs] : hello->link_groups) {
    if (link_type_of(code) == LinkType::kAsym &&
        neighbor_type_of(code) == NeighborType::kNotNeigh)
      advertised_asym.insert(advertised_asym.end(), addrs.begin(),
                             addrs.end());
  }
  auto rec = make_record("hello_recv");
  rec.with("from", from)
      .with("seq", static_cast<std::int64_t>(m.header.seq_num))
      .with("sym", logging::join_node_list(advertised_sym))
      .with("asym", logging::join_node_list(advertised_asym))
      .with("lists_us", lists_us ? "1" : "0")
      .with("will", static_cast<std::int64_t>(hello->willingness));
  log_.append(std::move(rec));

  if (change == LinkSet::Change::kBecameSym) {
    auto r = make_record("link_sym");
    r.with("nbr", from);
    log_.append(std::move(r));
  } else if (change == LinkSet::Change::kLost) {
    auto r = make_record("link_lost");
    r.with("nbr", from);
    log_.append(std::move(r));
  }

  // 2-hop set (§8.1.1): symmetric neighbors advertised by a symmetric
  // neighbor, ourselves excluded.
  if (now_sym) {
    std::vector<NodeId> two_hops;
    for (auto n : advertised_sym)
      if (n != id_) two_hops.push_back(n);
    if (neighbors_.set_two_hops_via(from, two_hops,
                                    sim_.now() + m.header.vtime, &delta_)) {
      tables_changed = true;
      auto r = make_record("two_hop_update");
      r.with("via", from)
          .with("nodes",
                logging::join_node_list(neighbors_.two_hops_via(from)));
      log_.append(std::move(r));
    }
  }

  // MPR selector set (§8.4.1).
  const bool was_selector =
      mpr_selectors_.contains(from) && mpr_selectors_[from] > sim_.now();
  if (selects_us_mpr && now_sym) {
    mpr_selectors_[from] = sim_.now() + m.header.vtime;
    if (!was_selector) {
      ++ansn_;
      auto r = make_record("mpr_selector_add");
      r.with("nbr", from);
      log_.append(std::move(r));
    }
  } else if (was_selector && lists_us && !selects_us_mpr) {
    mpr_selectors_.erase(from);
    ++ansn_;
    auto r = make_record("mpr_selector_del");
    r.with("nbr", from);
    log_.append(std::move(r));
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
    auto echo = make_record("fwd_echo");
    echo.with("by", transmitter)
        .with("orig", m.header.originator)
        .with("seq", static_cast<std::int64_t>(m.header.seq_num));
    log_.append(std::move(echo));
  }
  if (duplicates_.seen(m.header.originator, m.header.seq_num)) {
    maybe_forward(m, transmitter);
    return;
  }
  ++stats_.tc_recv;

  const NodeId origin = mid_set_.main_address_of(m.header.originator);
  const bool applied = topology_.on_tc(sim_.now(), origin, tc->ansn,
                                       tc->advertised, m.header.vtime,
                                       &delta_);
  auto rec = make_record("tc_recv");
  rec.with("orig", origin)
      .with("via", transmitter)
      .with("seq", static_cast<std::int64_t>(m.header.seq_num))
      .with("ansn", static_cast<std::int64_t>(tc->ansn))
      .with("adv", logging::join_node_list(tc->advertised))
      .with("applied", applied ? "1" : "0");
  log_.append(std::move(rec));

  update_routes();
  maybe_forward(m, transmitter);
}

void Agent::process_mid(const Message& m, NodeId transmitter) {
  const auto* mid = m.as_mid();
  if (!mid) return;
  if (!links_.is_symmetric(sim_.now(), transmitter)) return;
  if (!duplicates_.seen(m.header.originator, m.header.seq_num)) {
    mid_set_.on_mid(sim_.now(), m.header.originator, mid->interfaces,
                    m.header.vtime);
    auto rec = make_record("mid_recv");
    rec.with("orig", m.header.originator)
        .with("ifaces", logging::join_node_list(mid->interfaces));
    log_.append(std::move(rec));
  }
  maybe_forward(m, transmitter);
}

void Agent::process_hna(const Message& m, NodeId transmitter) {
  const auto* hna = m.as_hna();
  if (!hna) return;
  if (!links_.is_symmetric(sim_.now(), transmitter)) return;
  if (!duplicates_.seen(m.header.originator, m.header.seq_num)) {
    hna_set_.on_hna(sim_.now(), m.header.originator, hna->entries,
                    m.header.vtime);
    auto rec = make_record("hna_recv");
    rec.with("orig", m.header.originator)
        .with("count", static_cast<std::int64_t>(hna->entries.size()));
    log_.append(std::move(rec));
  }
  maybe_forward(m, transmitter);
}

void Agent::maybe_forward(const Message& m, NodeId transmitter) {
  // Default forwarding algorithm (§3.4.1).
  if (!links_.is_symmetric(sim_.now(), transmitter)) return;
  if (duplicates_.forwarded(m.header.originator, m.header.seq_num)) return;

  const bool transmitter_selected_us = [&] {
    auto it = mpr_selectors_.find(transmitter);
    return it != mpr_selectors_.end() && it->second > sim_.now();
  }();

  const bool forward =
      transmitter_selected_us && m.header.ttl > 1;
  duplicates_.record(sim_.now(), m.header.originator, m.header.seq_num,
                     forward, config_.dup_hold);
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
  auto rec = make_record("msg_fwd");
  rec.with("type", static_cast<std::int64_t>(static_cast<int>(m.header.type)))
      .with("orig", m.header.originator)
      .with("seq", static_cast<std::int64_t>(m.header.seq_num));
  log_.append(std::move(rec));

  // Small forwarding jitter (§3.4.1 note).
  const auto delay = sim::Duration::from_us(sim_.rng().uniform_int(0, 100'000));
  arm_forward(std::move(copy), sim_.now() + delay);
}

void Agent::arm_forward(Message copy, sim::Time at) {
  // schedule_at(now + delay) is what both engines' schedule(delay) resolves
  // to, so routing everything through here is trace-neutral. The untracked
  // branch is the original closure verbatim.
  if (!track_pending_forwards_) {
    sim_.schedule_at(at, [this, copy = std::move(copy)]() mutable {
      if (running_) broadcast_message(std::move(copy));
    });
    return;
  }
  const std::uint64_t token = next_forward_token_++;
  PendingForward pf{copy, at, 0};
  const sim::EventId ev =
      sim_.schedule_at(at, [this, token, copy = std::move(copy)]() mutable {
        pending_forwards_reg_.erase(token);
        if (running_) broadcast_message(std::move(copy));
      });
  pf.seq = ev.raw();
  pending_forwards_reg_.emplace(token, std::move(pf));
}

void Agent::set_track_pending_forwards(bool on) {
  track_pending_forwards_ = on;
  if (!on) pending_forwards_reg_.clear();
}

std::vector<Agent::PendingForward> Agent::pending_forwards() const {
  std::vector<PendingForward> out;
  out.reserve(pending_forwards_reg_.size());
  for (const auto& [token, pf] : pending_forwards_reg_) out.push_back(pf);
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
  // msg_seq_/pkt_seq_/ansn_ intentionally keep counting (see header).
  log_.append(make_record("tables_reset"));
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
  s.mpr_selectors.assign(mpr_selectors_.begin(), mpr_selectors_.end());
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
  mpr_selectors_.clear();
  mpr_selectors_.insert(s.mpr_selectors.begin(), s.mpr_selectors.end());
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
  auto path = RoutingTable::shortest_path(graph_, id_, dest, avoid);
  if (!path) {
    auto rec = make_record("data_no_route");
    rec.with("dest", dest);
    log_.append(std::move(rec));
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
  m.header.vtime = config_.top_hold;
  m.header.originator = id_;
  m.header.ttl = kDefaultTtl;
  m.header.seq_num = next_msg_seq();

  auto rec = make_record("data_sent");
  rec.with("dest", d.destination)
      .with("proto", static_cast<std::int64_t>(protocol))
      .with("route", logging::join_node_list(route));
  log_.append(std::move(rec));

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
    auto rec = make_record("data_recv");
    rec.with("src", data->source)
        .with("proto", static_cast<std::int64_t>(data->protocol))
        .with("via", transmitter);
    log_.append(std::move(rec));
    if (data_handler_) data_handler_(*data);
    return;
  }

  if (data->route.empty() || m.header.ttl <= 1) {
    ++stats_.data_dropped;
    auto rec = make_record("data_drop");
    rec.with("src", data->source).with("reason", "route_exhausted");
    log_.append(std::move(rec));
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
  auto rec = make_record("data_fwd");
  rec.with("src", d.source).with("dest", d.destination).with("next", next);
  log_.append(std::move(rec));

  OlsrPacket p;
  p.seq_num = next_pkt_seq();
  p.messages.push_back(std::move(copy));
  medium_.unicast(id_, next, serialize_packet(p));
}

// ---------------------------------------------------------------- upkeep

void Agent::housekeep() {
  const auto now = sim_.now();
  const auto lost = links_.expire(now);
  if (!lost.empty()) mprs_dirty_ = true;
  for (auto n : lost) {
    neighbors_.remove_neighbor(n, &delta_);
    auto rec = make_record("link_lost");
    rec.with("nbr", n);
    log_.append(std::move(rec));
  }
  if (neighbors_.expire_two_hops(now, &delta_)) mprs_dirty_ = true;
  topology_.expire(now, &delta_);
  duplicates_.expire(now);
  mid_set_.expire(now);
  hna_set_.expire(now);
  for (auto it = mpr_selectors_.begin(); it != mpr_selectors_.end();) {
    if (it->second <= now) {
      auto rec = make_record("mpr_selector_del");
      rec.with("nbr", it->first);
      log_.append(std::move(rec));
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
  // as at its last run, it would reproduce mprs_.
  links_.symmetric_neighbors(sim_.now(), sym_scratch_);
  auto& n_now = mpr_neighbors_scratch_;
  n_now.clear();
  for (auto n : sym_scratch_)
    n_now.emplace_back(n, neighbors_.willingness_of(n));
  if (neighbors_.rows_stamp() == mpr_rows_stamp_ &&
      n_now == mpr_inputs_.neighbors)
    return;
  mpr_inputs_.neighbors.swap(n_now);
  mpr_rows_stamp_ = neighbors_.rows_stamp();
  neighbors_.reachability(id_, mpr_inputs_.reach);

  obs::hit(obs::Hot::kMprRuns);
  select_mprs(mpr_inputs_, /*prune_redundant=*/false, mpr_scratch_,
              fresh_mprs_);
  if (fresh_mprs_ == mprs_) return;

  std::vector<NodeId> added, removed;
  std::set_difference(fresh_mprs_.begin(), fresh_mprs_.end(), mprs_.begin(),
                      mprs_.end(), std::back_inserter(added));
  std::set_difference(mprs_.begin(), mprs_.end(), fresh_mprs_.begin(),
                      fresh_mprs_.end(), std::back_inserter(removed));

  mprs_ = fresh_mprs_;
  obs::hit(obs::Hot::kMprRecomputes);
  auto rec = make_record("mpr_changed");
  rec.with("mprs", logging::join_node_list(mprs_))
      .with("added", logging::join_node_list(added))
      .with("removed", logging::join_node_list(removed));
  log_.append(std::move(rec));
}

void Agent::update_routes() {
  refresh_graph();
  if (routing_.current(id_, graph_)) return;
  obs::hit(obs::Hot::kRouteRuns);
  const auto [added, removed] = routing_.recompute(id_, graph_);
  if (added.empty() && removed.empty()) return;
  obs::hit(obs::Hot::kRouteRecomputes);
  obs::instant(obs::SpanName::kRoutingRecompute, sim_.now(), id_.value());
  auto rec = make_record("routes_changed");
  rec.with("added", logging::join_node_list(added))
      .with("removed", logging::join_node_list(removed))
      .with("size", static_cast<std::int64_t>(routing_.size()));
  log_.append(std::move(rec));
}

}  // namespace manet::olsr
