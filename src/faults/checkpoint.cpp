#include "faults/checkpoint.hpp"

#include <algorithm>
#include <functional>
#include <string>
#include <utility>

#include "olsr/wire.hpp"

namespace manet::faults {

// ------------------------------------------------------- save-side gathers

namespace {

LogImageOf<logging::LogStore::Records> log_image(
    const logging::LogStore& log) {
  return {log.records(), log.total_appended(), log.dropped()};
}

TimerImage timer_image(const sim::PeriodicTimer& t) {
  return {t.running(), t.next_fire(), t.pending_seq()};
}

}  // namespace

AgentSnapshot agent_image(const olsr::Agent& agent) {
  AgentSnapshot a;
  a.running = agent.running();
  a.scalars = agent.protocol_scalars();
  a.links = agent.links().slots();
  a.links_hint = agent.links().transition_hint();
  a.neighbors = agent.neighbors().neighbor_tuples();
  a.two_hops = agent.neighbors().two_hop_tuples();
  a.topology = agent.topology().tuples();
  a.latest_ansn = agent.topology().latest_ansn();
  a.duplicates = agent.duplicates().entries();
  a.duplicate_ring = agent.duplicates().ring();
  a.routes = agent.routes().persist();
  a.mid = agent.mid_set().tuples();
  a.hna = agent.hna_set().tuples();
  a.log = log_image(agent.log());
  a.hello = timer_image(agent.hello_timer());
  a.tc = timer_image(agent.tc_timer());
  a.mid_timer = timer_image(agent.mid_timer());
  a.housekeeping = timer_image(agent.housekeeping_timer());
  for (const auto& f : agent.pending_forwards())
    a.forwards.push_back(
        {olsr::serialize_packet(olsr::OlsrPacket{0, {f.message}}), f.at, f.seq});
  return a;
}

MediumImage medium_image(const net::Medium& medium) {
  MediumImage m;
  m.stats = medium.stats();
  for (const auto id : medium.attached_ids())
    m.hosts.push_back({id, medium.is_up(id), medium.loss_override(id),
                       medium.partition(id)});
  m.flights = medium.in_flight();
  return m;
}

DetectorImage detector_image(const core::Detector& detector) {
  return {detector.persist(), detector.trust_store().trust_rows(),
          detector.trust_store().interaction_rows()};
}

// ------------------------------------------ load-side validation and apply

namespace {

void check_routes(const olsr::RoutingTable::Persisted& p) {
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
}

void check_log(const LogImage& log) {
  // The log's readers take the newest record as the freshest.
  for (std::size_t i = 1; i < log.records.size(); ++i)
    if (log.records[i].time < log.records[i - 1].time)
      throw CheckpointError{"log record times go backwards"};
  // Otherwise base_index() wraps and every cursor reader silently stops.
  if (log.total_appended != log.records.size() + log.dropped)
    throw CheckpointError{"log counters disagree with its records"};
}

olsr::Message parse_forward(const ForwardImage& f) {
  try {
    auto packet = olsr::parse_packet(f.message);
    if (packet.messages.size() == 1) return std::move(packet.messages.front());
  } catch (const olsr::WireError&) {
  }
  throw CheckpointError{"corrupt pending-forward message"};
}

}  // namespace

AgentEvents restore_agent(AgentImage a, olsr::Agent& agent) {
  // The OLSR tables answer lookups by binary search or, in the duplicate
  // set, hold one tuple per key, and restore derives the MPR reach rows
  // from them, so each section must arrive in the strict order save writes.
  require_ascending(a.scalars.mprs, std::identity{}, "MPR set");
  require_ascending(
      a.scalars.mpr_selectors, [](const auto& sel) { return sel.first; },
      "MPR selectors");
  require_ascending(
      a.links, [](const olsr::LinkSet::Slot& s) { return s.tuple.neighbor; },
      "link slots");
  require_ascending(
      a.neighbors, [](const olsr::NeighborTuple& t) { return t.id; },
      "neighbor tuples");
  require_ascending(
      a.two_hops,
      [](const olsr::TwoHopTuple& t) { return std::pair{t.via, t.two_hop}; },
      "2-hop tuples");
  require_ascending(
      a.topology,
      [](const olsr::TopologyTuple& t) {
        return std::pair{t.last_hop, t.dest};
      },
      "topology tuples");
  require_ascending(
      a.latest_ansn, [](const auto& row) { return row.first; },
      "latest-ANSN rows");
  require_ascending(
      a.duplicates,
      [](const olsr::DuplicateSet::Entry& e) {
        return std::pair{e.originator, e.seq};
      },
      "duplicate entries");
  require_ascending(
      a.mid, [](const olsr::MidSet::Tuple& t) { return t.iface; },
      "MID tuples");
  require_ascending(
      a.hna, [](const auto& entry) { return entry.first; }, "HNA tuples");
  // One HELLO sets every 2-hop tuple of its via (§8.2.1), and the table
  // keeps that N_time once per via.
  for (std::size_t i = 1; i < a.two_hops.size(); ++i)
    if (a.two_hops[i].via == a.two_hops[i - 1].via &&
        a.two_hops[i].valid_until != a.two_hops[i - 1].valid_until)
      throw CheckpointError{"2-hop tuples of one via disagree on N_time"};
  // expire() pops the ring's due prefix, so it must be in expiry order.
  for (std::size_t i = 1; i < a.duplicate_ring.size(); ++i)
    if (a.duplicate_ring[i].expiry < a.duplicate_ring[i - 1].expiry)
      throw CheckpointError{"duplicate ring expiry times go backwards"};
  // process_hello never stores the agent as its own (2-hop) neighbor.
  const auto self = agent.id();
  if (std::ranges::any_of(a.neighbors,
                          [self](const auto& t) { return t.id == self; }) ||
      std::ranges::any_of(a.two_hops, [self](const auto& t) {
        return t.via == self || t.two_hop == self;
      }))
    throw CheckpointError{"neighbor table names the agent itself"};
  check_routes(a.routes);
  check_log(a.log);
  AgentEvents events{a.running, a.hello, a.tc, a.mid_timer, a.housekeeping,
                     {}};
  for (const auto& f : a.forwards)
    events.forwards.push_back({parse_forward(f), f.at, f.seq});

  agent.restore_protocol_scalars(a.scalars);
  agent.restore_links().restore(std::move(a.links), a.links_hint);
  agent.restore_neighbors().restore(std::move(a.neighbors),
                                    std::move(a.two_hops));
  agent.restore_topology().restore(std::move(a.topology),
                                   std::move(a.latest_ansn));
  agent.restore_duplicates().restore(std::move(a.duplicates),
                                     std::move(a.duplicate_ring));
  agent.restore_routes().restore(std::move(a.routes));
  agent.rebuild_knowledge_graph();
  agent.restore_mid_set().restore(std::move(a.mid));
  agent.restore_hna_set().restore(std::move(a.hna));
  agent.log().restore(a.log.records, a.log.total_appended, a.log.dropped);
  return events;
}

void restore_medium(const MediumImage& m, net::Medium& medium) {
  for (const auto& h : m.hosts)
    if (!medium.attached(h.id))
      throw CheckpointError{"checkpoint names an unknown host"};
  for (const auto& h : m.hosts) {
    medium.set_up(h.id, h.up);
    medium.set_loss_override(h.id, h.loss_override);
    medium.set_partition(h.id, h.partition);
  }
  medium.restore_stats(m.stats);
}

void restore_detector(DetectorImage d, core::Detector& detector) {
  // The next scan reads the records from its cursor on; a cursor past the
  // log's end would skip every record appended until the log caught up.
  if (d.state.next_scan > detector.log().total_appended())
    throw CheckpointError{"scan cursor past the end of the log"};
  // The pipeline finds a disputed link's pool by binary search, and the
  // cooldown check a link's last investigation.
  require_ascending(
      d.state.answer_pool, [](const auto& pool) { return pool.first; },
      "answer pools");
  require_ascending(
      d.state.last_investigated, [](const auto& link) { return link.first; },
      "last-investigated links");
  // So does the trust store, in both of its slabs.
  if (const char* slab = trust::TrustStore::unordered_slab(
          d.trust_rows, d.interaction_rows))
    throw CheckpointError{std::string{slab} + " unsorted or duplicated"};
  // And so do the auditor, over its WILL_ALWAYS neighbors and a flood's
  // audited and credited MPRs (with audited = [n5, n2], n2's re-broadcasts
  // would never be credited), and the E2 bookkeeping over a TC's echoes; a
  // timed-out TC accuses its first unheard MPR as the lowest, and the
  // periodic audit walks the MPR set in ascending order.
  require_ascending(d.state.auditor.always, std::identity{},
                    "WILL_ALWAYS neighbors");
  for (const auto& flood : d.state.auditor.pending) {
    require_ascending(flood.audited, std::identity{}, "audited MPRs");
    require_ascending(flood.credited, std::identity{}, "credited MPRs");
  }
  for (const auto& tc : d.state.pending_tcs) {
    require_ascending(tc.mprs_then, std::identity{}, "pending-TC MPRs");
    require_ascending(tc.heard_from, std::identity{}, "pending-TC echoes");
  }
  require_ascending(d.state.current_mprs, std::identity{}, "detector MPR set");
  detector.restore(std::move(d.state));
  detector.trust_store().restore(std::move(d.trust_rows),
                                 std::move(d.interaction_rows));
}

void encode_log(CheckpointWriter& w, const logging::LogStore& log) {
  const auto image = log_image(log);
  transfer_log(w, image);
}

void encode_agent(CheckpointWriter& w, const olsr::Agent& agent) {
  const auto image = agent_image(agent);
  transfer_agent(w, image);
}

AgentEvents decode_agent(CheckpointReader& r, olsr::Agent& agent) {
  AgentImage image;
  transfer_agent(r, image);
  return restore_agent(std::move(image), agent);
}

}  // namespace manet::faults
