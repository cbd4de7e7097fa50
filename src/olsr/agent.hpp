#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "logging/log_store.hpp"
#include "net/medium.hpp"
#include "olsr/assoc_sets.hpp"
#include "olsr/constants.hpp"
#include "olsr/duplicate_set.hpp"
#include "olsr/hooks.hpp"
#include "olsr/link_set.hpp"
#include "olsr/messages.hpp"
#include "olsr/mpr_selection.hpp"
#include "olsr/neighbor_table.hpp"
#include "olsr/routing_table.hpp"
#include "olsr/topology_set.hpp"
#include "sim/engine.hpp"
#include "sim/timer.hpp"

namespace manet::olsr {

/// Per-message-type traffic counters (overhead bench, Table B).
struct AgentStats {
  std::uint64_t hello_sent = 0;
  std::uint64_t hello_recv = 0;
  std::uint64_t tc_sent = 0;
  std::uint64_t tc_recv = 0;
  std::uint64_t msgs_forwarded = 0;
  std::uint64_t data_sent = 0;
  std::uint64_t data_relayed = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t data_dropped = 0;
  std::uint64_t parse_errors = 0;
};

/// One OLSR routing daemon (RFC 3626 core: link sensing, HELLO/TC/MID/HNA,
/// MPR selection and flooding, routing-table calculation), attached to the
/// shared medium. Every protocol-relevant action is appended to the node's
/// audit LogStore — the paper's IDS consumes *only* that log plus the
/// investigation answers, never the agent's in-memory state.
///
/// Derived state is kept current at the end of HELLO/TC processing and
/// housekeeping. Routing reads a live knowledge graph patched in place from
/// the 2-hop and topology deltas. Its self edges are re-synced to the
/// symmetric links at now only when that set can have moved: after a HELLO
/// flipped a link or an expiry dropped a symmetric one, and once now
/// reaches the earliest L_SYM_time among the symmetric links (a bound every
/// HELLO may lower). The BFS re-runs only when the graph's arc set changed
/// in a way that can move a route (RoutingTable).
/// MPR selection is gated twice. Table mutations raise a dirty flag, and
/// a passed link-set symmetry timer boundary (LinkSet::next_transition) —
/// the one way the inputs change without an event — counts as dirty too.
/// A dirty look then re-runs the §8.3.1 heuristic only when its inputs
/// moved since its last run: the neighbor table's reach rows (their stamp)
/// or N, the symmetric links at now with their willingness. Skipped looks
/// and runs are exactly those that would have produced identical state
/// and no log record.
class Agent {
 public:
  /// What a scenario varies per node; the RFC 3626 timing is fixed in
  /// olsr/constants.hpp.
  struct Config {
    Willingness willingness = Willingness::kDefault;
    /// Additional interface addresses; a non-empty list enables MID
    /// emission (multi-homed node).
    std::vector<NodeId> extra_interfaces;
    /// External networks this node gateways for; enables HNA emission.
    std::vector<HnaMessage::Entry> hna_networks;
    /// Log an fwd_echo record (by/orig/seq) whenever a neighbor is heard
    /// re-broadcasting a *third-party* flood — the raw material of the
    /// forwarding audit (core/signatures_forwarding.hpp). Off by default:
    /// the record is chatty and the golden spoofing traces pin logs that
    /// never contained it.
    bool log_fwd_echo = false;
    std::size_t log_capacity = 100'000;
  };

  /// Receives the full DATA message: source, protocol and payload plus the
  /// relay trace (needed by responders answering over the reverse path).
  using DataHandler = std::function<void(const DataMessage& message)>;

  Agent(sim::Engine& sim, net::Medium& medium, NodeId id, Config config,
        AgentHooks* hooks = nullptr);
  ~Agent();

  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  void start();
  void stop();
  bool running() const { return running_; }

  /// Re-points the interposition hooks (must not outlive the hooks object).
  void set_hooks(AgentHooks* hooks) { hooks_ = hooks; }

  NodeId id() const { return id_; }
  const Config& config() const { return config_; }

  // --- state inspection (tests, responder answers, benches) ---
  const LinkSet& links() const { return links_; }
  const NeighborTable& neighbors() const { return neighbors_; }
  const TopologySet& topology() const { return topology_; }
  const RoutingTable& routes() const { return routing_; }
  const MidSet& mid_set() const { return mid_set_; }
  const HnaSet& hna_set() const { return hna_set_; }
  /// Current MPR set, sorted ascending.
  const std::vector<NodeId>& mpr_set() const { return mprs_; }
  bool is_mpr(NodeId n) const;
  std::vector<NodeId> mpr_selectors() const;
  bool is_symmetric_neighbor(NodeId n) const;
  const AgentStats& stats() const { return stats_; }

  /// A copy of the adjacency this node believes in (link set + 2-hop + TC
  /// topology, §10), self edges synced to the symmetric links at now.
  KnowledgeGraph knowledge_graph() const;
  /// Shortest hop path to `dest` over that adjacency (next hop first,
  /// `dest` last; nullopt if unreachable), relaying through no node of
  /// `avoid` (sorted ascending; `dest` itself may be in it). One BFS over
  /// the live graph with the symmetric links at now as first hops, on
  /// reused scratch: no graph copy, and the graph is left as it is.
  std::optional<std::vector<NodeId>> path_avoiding(
      NodeId dest, std::span<const NodeId> avoid) const;

  // --- audit log (the IDS's only window into the daemon) ---
  logging::LogStore& log() { return log_; }
  const logging::LogStore& log() const { return log_; }

  // --- application data plane (carrier of the investigation protocol) ---
  enum class SendStatus { kSent, kNoRoute };
  /// Source-routes a unicast payload to `dest`, avoiding `avoid` as relays.
  /// `avoid` must be sorted ascending.
  SendStatus send_data(NodeId dest, std::uint16_t protocol,
                       std::vector<std::uint8_t> payload,
                       std::span<const NodeId> avoid = {});
  SendStatus send_data(NodeId dest, std::uint16_t protocol,
                       std::vector<std::uint8_t> payload,
                       std::initializer_list<NodeId> avoid) {
    return send_data(dest, protocol, std::move(payload),
                     std::span<const NodeId>{avoid.begin(), avoid.size()});
  }
  /// Sends along an explicit relay list (destination last).
  void send_data_via(std::vector<NodeId> route, std::uint16_t protocol,
                     std::vector<std::uint8_t> payload);
  void set_data_handler(DataHandler handler) { data_handler_ = std::move(handler); }

  /// Wraps `message` in a fresh OLSR packet and broadcasts it, with no log
  /// record or duplicate-set entry (the emitters add their own). Forge
  /// attacks use it to inject crafted messages as if this agent sent them.
  void broadcast_message(Message message);

  // --- fault / checkpoint surface ------------------------------------
  // Everything below exists so the faults subsystem can crash, amnesia-
  // restart, snapshot and resume a daemon without perturbing the RNG/event
  // trace. None of it is for protocol logic.

  /// One jittered §3.4.1 re-broadcast still in flight: the already-mutated
  /// message copy, its scheduled emission time and the engine sequence
  /// number of the pending event (checkpoint ordering key).
  struct PendingForward {
    Message message;
    sim::Time at{};
    std::uint64_t seq = 0;
  };

  /// Pending jittered forwards, sorted ascending by (at, seq).
  std::vector<PendingForward> pending_forwards() const;
  /// Re-schedules one persisted forward at its original emission time.
  /// Exactly one schedule, zero RNG draws.
  void restore_pending_forward(Message message, sim::Time at);

  /// Amnesia rejoin: drops every protocol table and all derived state, but
  /// keeps the msg/pkt/ANSN sequence counters monotonic — a rebooted node
  /// must never reuse an (originator, seq) pair a peer's DuplicateSet may
  /// still remember as forwarded. Logs "tables_reset". The daemon must be
  /// stopped; call start() afterwards to rejoin.
  void reset_tables();

  /// Checkpoint-restore entry: marks the daemon running and installs the
  /// medium receive handler WITHOUT starting timers, appending log records
  /// or drawing from the RNG — the restore path re-arms each timer at its
  /// persisted deadline via PeriodicTimer::resume_at.
  void resume_running();

  /// Scalar protocol state persisted by a checkpoint (tables, audit log,
  /// timers and pending forwards go through their own surfaces).
  struct ProtocolScalars {
    std::vector<NodeId> mprs;
    std::vector<std::pair<NodeId, sim::Time>> mpr_selectors;
    bool mprs_dirty = true;
    sim::Time mprs_links_hint{};
    std::uint16_t msg_seq = 1;
    std::uint16_t pkt_seq = 1;
    std::uint16_t ansn = 1;
    AgentStats stats;
  };
  ProtocolScalars protocol_scalars() const;
  void restore_protocol_scalars(const ProtocolScalars& s);

  /// Read access for checkpoint save (the other tables already have const
  /// accessors above).
  const DuplicateSet& duplicates() const { return duplicates_; }

  /// Mutable table access for checkpoint restore only.
  LinkSet& restore_links() { return links_; }
  NeighborTable& restore_neighbors() { return neighbors_; }
  TopologySet& restore_topology() { return topology_; }
  DuplicateSet& restore_duplicates() { return duplicates_; }
  MidSet& restore_mid_set() { return mid_set_; }
  HnaSet& restore_hna_set() { return hna_set_; }
  RoutingTable& restore_routes() { return routing_; }
  /// Rebuilds the live knowledge graph from the restored 2-hop and
  /// topology tables (self edges re-sync on the next read).
  void rebuild_knowledge_graph();

  /// Timer access for checkpoint save (next_fire/pending_seq) and restore
  /// (resume_at). The MID timer only runs for multi-homed/gateway configs.
  sim::PeriodicTimer& hello_timer() { return hello_timer_; }
  sim::PeriodicTimer& tc_timer() { return tc_timer_; }
  sim::PeriodicTimer& mid_timer() { return mid_timer_; }
  sim::PeriodicTimer& housekeeping_timer() { return housekeeping_timer_; }
  const sim::PeriodicTimer& hello_timer() const { return hello_timer_; }
  const sim::PeriodicTimer& tc_timer() const { return tc_timer_; }
  const sim::PeriodicTimer& mid_timer() const { return mid_timer_; }
  const sim::PeriodicTimer& housekeeping_timer() const {
    return housekeeping_timer_;
  }

 private:
  /// Parks `copy` in a forward slot and schedules its emission at `at`.
  void arm_forward(Message copy, sim::Time at);
  /// The event of one forward slot: frees it and broadcasts its message.
  void fire_forward(std::uint32_t slot);

  void handle_packet(const net::Packet& packet);
  /// `lists` is the frame's one derivation of the HELLO's lists.
  void process_hello(const Message& m, const HelloLists& lists);
  void process_tc(const Message& m, NodeId transmitter);
  void process_mid(const Message& m, NodeId transmitter);
  void process_hna(const Message& m, NodeId transmitter);
  void process_data(const Message& m, NodeId transmitter);
  /// `dup` is the duplicate tuple the caller looked up for m (nullptr when
  /// m is new); the caller has checked that `transmitter` is a symmetric
  /// neighbor.
  void maybe_forward(const Message& m, NodeId transmitter,
                     DuplicateSet::Tuple* dup);

  void emit_hello();
  void emit_tc();
  void emit_mid();
  void emit_hna();
  void housekeep();

  void maybe_recompute_mprs();
  void recompute_mprs();
  /// Brings the live graph up to date, then re-runs routing if its arc
  /// set moved and logs any change of the reachable set.
  void update_routes();
  /// Applies the pending table delta and, when the symmetric links may
  /// have moved, re-syncs the self edges.
  void refresh_graph();
  /// Patches the graph with delta_ minus arcs touching self; returns the
  /// arc-set changes.
  std::size_t apply_delta();
  /// Re-syncs `g`'s self<->neighbor edges to the symmetric links at now;
  /// returns the arc-set changes.
  std::size_t sync_self_edges(KnowledgeGraph& g) const;

  std::uint16_t next_msg_seq() { return msg_seq_++; }
  std::uint16_t next_pkt_seq() { return pkt_seq_++; }

  /// Appends a record stamped with now and this agent, its values in the
  /// event's schema order (logging/record.hpp), straight into the log.
  template <typename... Values>
  void write_log(logging::Event event, const Values&... values) {
    log_.append(sim_.now(), id_, event, values...);
  }

  sim::Engine& sim_;
  net::Medium& medium_;
  NodeId id_;
  Config config_;
  AgentHooks* hooks_;

  logging::LogStore log_;
  LinkSet links_;
  NeighborTable neighbors_;
  TopologySet topology_;
  DuplicateSet duplicates_;
  MidSet mid_set_;
  HnaSet hna_set_;
  KnowledgeGraph graph_;  // live: patched from table deltas, never rebuilt
  EdgeDelta delta_;       // table changes not yet applied to graph_
  RoutingTable routing_;
  std::vector<NodeId> mprs_;  // sorted ascending
  // (selector, valid_until) ascending: expiry logs the selectors in order.
  std::vector<std::pair<NodeId, sim::Time>> mpr_selectors_;

  // MPR recompute coalescing: a dirty flag raised by table mutations, plus
  // a snapshot of the link set's next symmetry-timer boundary taken at the
  // last selection. Initial values force the first selection.
  bool mprs_dirty_ = true;
  sim::Time mprs_links_hint_{};
  // Inputs of the last heuristic run: N in mpr_neighbors_ and the reach-row
  // stamp (0 = none yet; stamps start at 1). Derived state, so not
  // checkpointed: a restore or reset forgets it.
  std::uint64_t mpr_rows_stamp_ = 0;
  std::vector<MprNeighbor> mpr_neighbors_;
  std::vector<MprNeighbor> mpr_neighbors_scratch_;

  // When the next self-edge sync is due: the earliest L_SYM_time among the
  // symmetric links at the last sync, lowered by every HELLO, and zero
  // (now) once a link flipped. Derived state, so not checkpointed: a
  // restore or reset makes the next sync due at once.
  sim::Time self_edges_due_{};

  // Reusable scratch: per-HELLO/recompute work runs allocation-free in
  // steady state.
  mutable std::vector<NodeId> sym_scratch_;
  mutable RoutingTable::PathScratch path_scratch_;
  mutable std::vector<NodeId> asym_scratch_;
  std::vector<NodeId> two_hop_scratch_;
  MprScratch mpr_scratch_;
  std::vector<NodeId> fresh_mprs_;

  std::uint16_t msg_seq_ = 1;
  std::uint16_t pkt_seq_ = 1;
  std::uint16_t ansn_ = 1;
  bool running_ = false;

  // Pending forwards: a slot table with a free list. Each forward's event
  // captures only (this, slot), which fits the callback's inline buffer;
  // the live slots are also what a checkpoint saves.
  struct ForwardSlot {
    PendingForward pending;
    bool live = false;
  };
  std::vector<ForwardSlot> forwards_;
  std::vector<std::uint32_t> free_forwards_;

  sim::PeriodicTimer hello_timer_;
  sim::PeriodicTimer tc_timer_;
  sim::PeriodicTimer mid_timer_;
  sim::PeriodicTimer housekeeping_timer_;

  DataHandler data_handler_;
  AgentStats stats_;
};

}  // namespace manet::olsr
