#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/detector.hpp"
#include "core/investigation.hpp"
#include "logging/audit_log.hpp"
#include "logging/log_store.hpp"
#include "net/medium.hpp"
#include "olsr/agent.hpp"
#include "sim/rng.hpp"
#include "trust/trust_store.hpp"

namespace manet::faults {

/// First bytes of every checkpoint ("MNTC" little-endian) and the format
/// version. Compatibility rule (logging::expect_tag): a reader accepts
/// exactly its own version — the snapshot is a byte-exact state image, so
/// any layout change (a new field, a reordered table) bumps the version
/// and invalidates old files. There is deliberately no migration path:
/// checkpoints are short-lived run artifacts, not archival data. Version 2
/// added the detector's forwarding-audit state and the per-attack-kind
/// experiment payload; version 3 replaced the routing snapshot with the
/// routes alone (the knowledge graph is rebuilt from the restored tables).
inline constexpr std::uint32_t kCheckpointMagic = 0x43544E4Du;  // "MNTC"
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// Thrown on malformed, truncated or version-mismatched snapshots.
struct CheckpointError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The checkpoint runs on the audit log's codec (logging/binary_codec.hpp);
/// only the exception type differs.
using CheckpointWriter = logging::BinaryWriter;
using CheckpointReader = logging::BinaryReader<CheckpointError>;

// ------------------------------------------------------------------ images
// Every section is one transfer function over a plain image. Save gathers
// a component into its image (*_image) and transfers it out; load
// transfers bytes into a fresh image, then validates and applies it
// (restore_*). Pending *events* (timers, in-flight frames, jittered
// forwards, the injector cursor) are handed back instead of applied: the
// restore harness re-arms them globally, sorted by (time, original seq),
// so the rebuilt event queue preserves every tie-break of the
// uninterrupted run.

/// One periodic timer's pending firing.
struct TimerImage {
  bool running = false;
  sim::Time next_fire{};
  std::uint64_t seq = 0;
};

/// One jittered §3.4.1 forward not yet emitted (message in wire form).
struct ForwardImage {
  std::vector<std::uint8_t> message;
  sim::Time at{};
  std::uint64_t seq = 0;
};

/// A LogStore's retained window and lifetime counters.
struct LogImage {
  std::deque<logging::LogRecord> records;
  std::uint64_t total_appended = 0;
  std::uint64_t dropped = 0;
};

/// One agent: protocol state, audit log and pending events.
struct AgentImage {
  bool running = false;
  olsr::Agent::ProtocolScalars scalars;
  std::vector<olsr::LinkSet::Slot> links;
  sim::Time links_hint{};
  std::vector<olsr::NeighborTuple> neighbors;
  std::vector<olsr::TwoHopTuple> two_hops;
  std::vector<olsr::TopologyTuple> topology;
  std::vector<std::pair<net::NodeId, std::uint16_t>> latest_ansn;
  std::vector<olsr::DuplicateSet::Entry> duplicates;
  std::deque<olsr::DuplicateSet::RingSlot> duplicate_ring;
  olsr::RoutingTable::Persisted routes;
  std::vector<olsr::MidSet::Tuple> mid;
  std::vector<std::pair<olsr::HnaSet::Key, sim::Time>> hna;
  LogImage log;
  TimerImage hello, tc, mid_timer, housekeeping;
  std::vector<ForwardImage> forwards;
};

/// Medium counters, per-host radio state and the in-flight frames.
struct MediumImage {
  struct Host {
    net::NodeId id;
    bool up = true;
    double loss_override = -1.0;
    std::uint32_t partition = 0;
  };
  net::MediumStats stats;
  std::vector<Host> hosts;
  std::vector<net::InFlightFrame> flights;
};

/// The detector's log-derived state and its trust store.
struct DetectorImage {
  core::Detector::Persisted state;
  std::vector<std::pair<net::NodeId, double>> trust_rows;
  std::vector<trust::TrustStore::Counter> interaction_rows;
};

/// An investigation manager's id cursor and counters.
struct InvestigationImage {
  std::uint32_t next_id = 0;
  core::InvestigationStats stats;
};

// --------------------------------------------------------------- layouts
// One definition per section, for both directions (IO is CheckpointWriter
// with const images, or CheckpointReader).

template <typename IO, typename State>
void transfer_rng(IO& io, State& state) {
  for (auto& word : state.s) io.u64(word);
  io.boolean(state.has_cached_normal);
  io.f64(state.cached_normal);
}

template <typename IO, typename Log>
void transfer_log(IO& io, Log& log) {
  io.list(log.records,
          [&io](auto& record) { logging::transfer_record(io, record); });
  io.u64(log.total_appended);
  io.u64(log.dropped);
}

template <typename IO, typename Routes>
void transfer_routes(IO& io, Routes& routes) {
  io.node(routes.self);
  io.list(routes.dests, [&io](auto& d) { io.node(d); });
  io.list(routes.dist, [&io](auto& d) { io.u32(d); });
  io.list(routes.parent, [&io](auto& p) { io.node(p); });
}

template <typename IO, typename Timer>
void transfer_timer(IO& io, Timer& timer) {
  io.boolean(timer.running);
  io.time(timer.next_fire);
  io.u64(timer.seq);
}

template <typename IO, typename Image>
void transfer_agent(IO& io, Image& a) {
  io.boolean(a.running);

  auto& s = a.scalars;
  io.list(s.mprs, [&io](auto& n) { io.node(n); });
  io.list(s.mpr_selectors, [&io](auto& sel) {
    io.node(sel.first);
    io.time(sel.second);
  });
  io.boolean(s.mprs_dirty);
  io.time(s.mprs_links_hint);
  io.u16(s.msg_seq);
  io.u16(s.pkt_seq);
  io.u16(s.ansn);
  auto& st = s.stats;
  for (auto* counter :
       {&st.hello_sent, &st.hello_recv, &st.tc_sent, &st.tc_recv,
        &st.msgs_forwarded, &st.data_sent, &st.data_relayed,
        &st.data_delivered, &st.data_dropped, &st.parse_errors})
    io.u64(*counter);

  io.list(a.links, [&io](auto& slot) {
    io.node(slot.tuple.neighbor);
    io.time(slot.tuple.asym_until);
    io.time(slot.tuple.sym_until);
    io.time(slot.tuple.valid_until);
    io.boolean(slot.was_symmetric);
  });
  io.time(a.links_hint);

  io.list(a.neighbors, [&io](auto& t) {
    io.node(t.id);
    io.u8(t.willingness);
    io.boolean(t.symmetric);
  });
  io.list(a.two_hops, [&io](auto& t) {
    io.node(t.via);
    io.node(t.two_hop);
    io.time(t.valid_until);
  });

  io.list(a.topology, [&io](auto& t) {
    io.node(t.dest);
    io.node(t.last_hop);
    io.u16(t.ansn);
    io.time(t.valid_until);
  });
  io.list(a.latest_ansn, [&io](auto& latest) {
    io.node(latest.first);
    io.u16(latest.second);
  });

  io.list(a.duplicates, [&io](auto& e) {
    io.node(e.originator);
    io.u16(e.seq);
    io.time(e.valid_until);
    io.boolean(e.forwarded);
  });
  io.list(a.duplicate_ring, [&io](auto& slot) {
    io.node(slot.originator);
    io.u16(slot.seq);
    io.time(slot.expiry);
  });

  // Routing table (the knowledge graph is rebuilt from the tables).
  transfer_routes(io, a.routes);

  io.list(a.mid, [&io](auto& t) {
    io.node(t.iface);
    io.node(t.main);
    io.time(t.valid_until);
  });
  io.list(a.hna, [&io](auto& entry) {
    io.node(entry.first.gateway);
    io.u32(entry.first.network);
    io.u8(entry.first.prefix_len);
    io.time(entry.second);
  });

  transfer_log(io, a.log);

  // Pending events: timers, then jittered forwards (wire-encoded messages).
  transfer_timer(io, a.hello);
  transfer_timer(io, a.tc);
  transfer_timer(io, a.mid_timer);
  transfer_timer(io, a.housekeeping);
  io.list(a.forwards, [&io](auto& f) {
    io.blob(f.message);
    io.time(f.at);
    io.u64(f.seq);
  });
}

template <typename IO, typename Image>
void transfer_medium(IO& io, Image& m) {
  auto& s = m.stats;
  io.u64(s.frames_sent);
  io.u64(s.deliveries);
  io.u64(s.losses);
  io.u64(s.collisions);
  io.u64(s.bytes_sent);
  io.u64(s.dropped_down);
  io.list(m.hosts, [&io](auto& h) {
    io.node(h.id);
    io.boolean(h.up);
    io.f64(h.loss_override);
    io.u32(h.partition);
  });
  io.list(m.flights, [&io](auto& f) {
    io.node(f.receiver);
    io.node(f.transmitter);
    io.node(f.link_dest);
    io.blob(f.payload);
    io.time(f.sent_at);
    io.time(f.arrival);
    io.u64(f.seq);
  });
}

template <typename IO, typename Image>
void transfer_detector(IO& io, Image& d) {
  const auto nodes = [&io](auto& list) {
    io.list(list, [&io](auto& n) { io.node(n); });
  };
  auto& p = d.state;
  io.time(p.last_scan);
  nodes(p.current_mprs);
  io.list(p.pending_tcs, [&](auto& tc) {
    io.time(tc.at);
    io.i64(tc.seq);
    nodes(tc.mprs_then);
    nodes(tc.heard_from);
  });
  io.list(p.last_investigated, [&io](auto& entry) {
    io.node(entry.first.first);
    io.node(entry.first.second);
    io.time(entry.second);
  });
  io.list(p.answer_pool, [&io](auto& entry) {
    io.node(entry.first.first);
    io.node(entry.first.second);
    io.list(entry.second, [&io](auto& a) {
      io.node(a.responder);
      io.f64(a.evidence);
      io.boolean(a.answered);
    });
  });
  io.u64(p.degradation.suppressed_convictions);
  auto& auditor = p.auditor;
  nodes(auditor.always);
  nodes(auditor.current_mprs);
  io.list(auditor.pending, [&](auto& flood) {
    io.node(flood.orig);
    io.i64(flood.seq);
    io.time(flood.first_heard);
    nodes(flood.audited);
    nodes(flood.credited);
  });
  io.list(auditor.window, [&io](auto& tally) {
    io.node(tally.mpr);
    io.u64(tally.expected);
    io.u64(tally.forwarded);
  });
  trust::transfer_trust_snapshot(io, d.trust_rows, d.interaction_rows);
}

template <typename IO, typename Image>
void transfer_investigations(IO& io, Image& inv) {
  io.u32(inv.next_id);
  io.u64(inv.stats.queries_sent);
  io.u64(inv.stats.answers_sent);
  io.u64(inv.stats.answers_received);
  io.u64(inv.stats.retries);
  io.u64(inv.stats.route_failures);
}

// ------------------------------------------------------- save-side gathers

AgentImage agent_image(const olsr::Agent& agent);
MediumImage medium_image(const net::Medium& medium);
DetectorImage detector_image(const core::Detector& detector);

// ------------------------------------------ load-side validation and apply

/// The part of an agent that is events, not state.
struct AgentEvents {
  bool running = false;
  TimerImage hello, tc, mid, housekeeping;
  std::vector<olsr::Agent::PendingForward> forwards;
};

/// Validates an agent image and installs its state; returns its events.
/// Rejected: unsorted or duplicated tables, self entries, routes whose
/// parent chains route_to could not walk, log times that go backwards or
/// counters that disagree with the records, unparsable forwards.
AgentEvents restore_agent(AgentImage image, olsr::Agent& agent);

/// Applies counters and per-host radio state (every host must be
/// attached). The in-flight frames stay in the image for the re-arm.
void restore_medium(const MediumImage& image, net::Medium& medium);

/// Installs detector and trust state. The detector re-reads its agent's
/// restored log, so restore that agent first; an unreadable record throws
/// CheckpointError.
void restore_detector(DetectorImage image, core::Detector& detector);

/// One section on its own (tests craft and splice sections with these):
/// gather + transfer, and transfer + restore_agent.
void encode_log(CheckpointWriter& w, const logging::LogStore& log);
void encode_agent(CheckpointWriter& w, const olsr::Agent& agent);
AgentEvents decode_agent(CheckpointReader& r, olsr::Agent& agent);

}  // namespace manet::faults
