#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <span>
#include <unordered_map>
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
/// the 2-hop and topology deltas, its self edges re-synced to the link set
/// on every read; the BFS re-runs only when the graph's arc set changed.
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
  struct Config {
    sim::Duration hello_interval = kHelloInterval;
    sim::Duration tc_interval = kTcInterval;
    sim::Duration mid_interval = kMidInterval;
    /// Emission jitter, subtracted uniformly from each interval (§18.3).
    sim::Duration jitter = sim::Duration::from_ms(100);
    sim::Duration neighb_hold = kNeighbHoldTime;
    sim::Duration top_hold = kTopHoldTime;
    sim::Duration dup_hold = kDupHoldTime;
    sim::Duration housekeeping_interval = sim::Duration::from_ms(500);
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
  /// number of the pending event (checkpoint ordering key). Only populated
  /// while pending-forward tracking is enabled.
  struct PendingForward {
    Message message;
    sim::Time at{};
    std::uint64_t seq = 0;
  };

  /// Enables/disables registry bookkeeping for jittered forwards. Enabling
  /// changes only which closure wraps the identical schedule call — draws
  /// and event ordering are untouched. Disabling clears the registry.
  void set_track_pending_forwards(bool on);
  bool track_pending_forwards() const { return track_pending_forwards_; }
  /// Pending jittered forwards, sorted ascending by (at, seq).
  std::vector<PendingForward> pending_forwards() const;
  /// Re-schedules one persisted forward at its original emission time.
  /// Exactly one schedule, zero RNG draws; requires tracking enabled.
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
  void arm_forward(Message copy, sim::Time at);

  void handle_packet(const net::Packet& packet);
  void process_hello(const Message& m, NodeId transmitter);
  void process_tc(const Message& m, NodeId transmitter);
  void process_mid(const Message& m, NodeId transmitter);
  void process_hna(const Message& m, NodeId transmitter);
  void process_data(const Message& m, NodeId transmitter);
  void maybe_forward(const Message& m, NodeId transmitter);

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
  /// Applies the pending table delta and re-syncs the self edges.
  void refresh_graph();
  /// Patches the graph with delta_ minus arcs touching self; returns the
  /// arc-set changes.
  std::size_t apply_delta();
  /// Re-syncs `g`'s self<->neighbor edges to the symmetric links at now;
  /// returns the arc-set changes.
  std::size_t sync_self_edges(KnowledgeGraph& g) const;

  std::uint16_t next_msg_seq() { return msg_seq_++; }
  std::uint16_t next_pkt_seq() { return pkt_seq_++; }

  logging::LogRecord make_record(std::string event) const;

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
  std::map<NodeId, sim::Time> mpr_selectors_;  // -> valid_until

  // MPR recompute coalescing: a dirty flag raised by table mutations, plus
  // a snapshot of the link set's next symmetry-timer boundary taken at the
  // last selection. Initial values force the first selection.
  bool mprs_dirty_ = true;
  sim::Time mprs_links_hint_{};
  // Inputs of the last heuristic run: N in mpr_inputs_.neighbors and the
  // reach-row stamp (0 = none yet; stamps start at 1). Derived state, so
  // not checkpointed: a restore or reset forgets it.
  std::uint64_t mpr_rows_stamp_ = 0;
  std::vector<std::pair<NodeId, Willingness>> mpr_neighbors_scratch_;

  // Reusable scratch: per-HELLO/recompute work runs allocation-free in
  // steady state.
  mutable std::vector<NodeId> sym_scratch_;
  mutable std::vector<NodeId> asym_scratch_;
  MprInputs mpr_inputs_;
  MprScratch mpr_scratch_;
  std::vector<NodeId> fresh_mprs_;

  std::uint16_t msg_seq_ = 1;
  std::uint16_t pkt_seq_ = 1;
  std::uint16_t ansn_ = 1;
  bool running_ = false;

  // Pending-forward registry (checkpoint support). Tokens are internal
  // handles; ordering for persistence comes from the event seq.
  bool track_pending_forwards_ = false;
  std::uint64_t next_forward_token_ = 1;
  std::unordered_map<std::uint64_t, PendingForward> pending_forwards_reg_;

  sim::PeriodicTimer hello_timer_;
  sim::PeriodicTimer tc_timer_;
  sim::PeriodicTimer mid_timer_;
  sim::PeriodicTimer housekeeping_timer_;

  DataHandler data_handler_;
  AgentStats stats_;
};

}  // namespace manet::olsr
