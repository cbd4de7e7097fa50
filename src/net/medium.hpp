#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "net/position.hpp"
#include "net/shard_router.hpp"
#include "net/spatial_grid.hpp"
#include "sim/simulator.hpp"

namespace manet::net {

/// Radio/channel parameters of the shared wireless medium.
struct RadioConfig {
  double range_m = 250.0;         ///< unit-disk communication range
  double loss_probability = 0.0;  ///< independent per-delivery frame loss
  /// Propagation + processing latency per delivered frame.
  sim::Duration base_delay = sim::Duration::from_us(500);
  /// Extra uniform random delay in [0, delay_jitter] per delivery.
  sim::Duration delay_jitter = sim::Duration::from_us(500);
  /// Two frames arriving at one receiver closer than this collide and are
  /// both lost — a coarse CSMA-less interference model (the paper's "high
  /// level of collisions" environment). Zero disables collisions.
  sim::Duration collision_window = sim::Duration::from_us(0);
};

/// Traffic counters, exposed for the overhead bench (Table B).
struct MediumStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t losses = 0;
  std::uint64_t collisions = 0;
  std::uint64_t bytes_sent = 0;
  /// Frames that survived the loss draw but arrived at a host that had gone
  /// down in the meantime — the drop-on-arrival rule (see ARCHITECTURE.md,
  /// "Fault model"): up/down is evaluated when the frame lands, never
  /// retroactively against in-flight frames.
  std::uint64_t dropped_down = 0;
};

/// One in-flight delivery as Medium::in_flight lists it: the full
/// reconstruction recipe for a frame that has been transmitted (all its
/// loss/jitter draws consumed) but has not yet arrived, with its own copy
/// of the payload bytes. `seq` is the event queue insertion sequence — the
/// checkpoint machinery sorts pending work by (arrival, seq) to re-arm it
/// in the original order.
struct InFlightFrame {
  NodeId receiver;
  NodeId transmitter;
  NodeId link_dest;
  Bytes payload;
  sim::Time sent_at;
  sim::Time arrival;
  std::uint64_t seq = 0;
};

/// Accounting of the per-cell receiver snapshots every broadcast reads:
/// how often they were rebuilt versus reused. In a static round of S
/// senders over C occupied cells, expect C builds and S - C hits; any
/// topology mutation invalidates all snapshots.
struct BatchStats {
  std::uint64_t snapshot_builds = 0;  ///< per-cell snapshots (re)built
  std::uint64_t snapshot_hits = 0;    ///< broadcasts reusing a snapshot
};

/// The shared broadcast medium. Hosts attach with a position and a receive
/// handler; transmissions reach every attached host within radio range,
/// subject to loss, delay jitter and collisions. Deterministic given the
/// simulator seed.
///
/// Hosts live in a dense vector indexed through a uniform-grid spatial
/// index (cell size = radio range), so a broadcast examines only the 3x3
/// cell neighborhood of the sender instead of scanning every host. The
/// candidate gather + ascending-NodeId sort of that neighborhood is cached
/// per occupied cell and shared by every sender in the cell until the
/// topology changes — OLSR HELLO and TC floods cluster inside one jitter
/// window, so a whole round reuses one snapshot per cell.
///
/// Determinism contract (tests/medium_index_test.cpp checks it against a
/// per-sender full-scan reference): receivers are delivered in ascending
/// NodeId order — the iteration order of the original std::map full scan —
/// with one loss draw, then one jitter draw, per receiver in that order, so
/// the RNG draw sequence, arrival times and event ordering equal a fresh
/// per-sender scan. The snapshots are invalidated by every topology
/// mutation (attach, detach, set_position, set_up) and are therefore always
/// equal to what a fresh gather would produce; partition and loss
/// overrides are read from the live host entries, never from a snapshot.
///
/// Under the sequential engine without the collision model, every delivery
/// waits in a slot the medium owns (receiver, frame, arrival, event seq)
/// and its arrival event names only the slot, so the live slots are
/// exactly the frames on the air: what a checkpoint saves.
class Medium {
 public:
  using ReceiveHandler = std::function<void(const Packet&)>;

  Medium(sim::Engine& sim, RadioConfig config);

  /// Installs the psim shard-awareness hook (see net/shard_router.hpp) and
  /// sizes the per-shard stat and snapshot slots. Must be called before
  /// any traffic flows; rejects radio configs the sharded engine cannot
  /// honor (the collision model needs cross-shard receiver bookkeeping at
  /// transmit time, which would race). Passing nullptr restores the
  /// sequential behavior.
  void set_shard_router(ShardRouter* router);

  void attach(NodeId id, Position pos, ReceiveHandler handler = {});
  void detach(NodeId id);
  bool attached(NodeId id) const;
  /// Ids of every attached host, ascending (fault-region sweeps iterate
  /// this so regional overrides apply in a deterministic order).
  std::vector<NodeId> attached_ids() const;

  /// Installs/replaces the receive handler of an attached host (a daemon
  /// starting on a host that was placed earlier).
  void set_handler(NodeId id, ReceiveHandler handler);

  void set_position(NodeId id, Position pos);
  Position position(NodeId id) const;

  /// Marks a host down/up (radio off); down hosts neither send nor receive.
  /// Frames already in flight toward a host that goes down are dropped on
  /// arrival (counted in MediumStats::dropped_down); frames in flight toward
  /// a host that comes back up before they land are delivered normally.
  void set_up(NodeId id, bool up);
  bool is_up(NodeId id) const;

  /// Per-host loss-rate override for radio brown-outs: when >= 0 it
  /// replaces RadioConfig::loss_probability for every frame this host sends
  /// or receives (the effective rate is the max over config, sender and
  /// receiver overrides). Negative clears the override. Never changes the
  /// number of RNG draws — only the probability of the one loss draw.
  void set_loss_override(NodeId id, double loss);
  double loss_override(NodeId id) const;

  /// Partition id for netsplit windows: frames cross only between hosts in
  /// the same partition, decided at transmit time BEFORE any RNG draw (a
  /// partitioned receiver consumes no loss/jitter draws, exactly like an
  /// out-of-range one). Default partition is 0 for every host.
  void set_partition(NodeId id, std::uint32_t partition);
  std::uint32_t partition(NodeId id) const;

  /// The transmitted-but-not-yet-arrived frames, the checkpoint
  /// machinery's view of the air, in ascending (arrival, seq) order. The
  /// payload bytes are copied here, not while the frames fly. Throws
  /// std::logic_error under a shard router or the collision model, whose
  /// deliveries wait in closures the medium cannot list.
  std::vector<InFlightFrame> in_flight() const;

  /// Checkpoint restore: re-schedules one saved in-flight frame in a slot.
  /// Draws nothing — the frame's loss/jitter draws were consumed before the
  /// snapshot. Must be called in ascending saved (arrival, seq) order so
  /// the re-issued sequence numbers preserve the original tie-break order.
  /// A frame whose transmitter, link destination, send time and bytes
  /// match a frame already on the air shares its payload (one
  /// transmission, parsed once). Refuses what in_flight() refuses.
  void restore_in_flight(const InFlightFrame& frame);

  /// Checkpoint restore of the traffic counters (sequential engine only).
  void restore_stats(const MediumStats& stats);

  /// Link-layer broadcast to every in-range host, through the sender cell's
  /// shared receiver snapshot. The payload is serialized once and shared by
  /// all receivers (zero-copy).
  void broadcast(NodeId sender, Bytes payload);
  void broadcast(NodeId sender, PayloadPtr payload);

  /// Link-layer unicast: delivered only to `next_hop`, and only if in range.
  void unicast(NodeId sender, NodeId next_hop, Bytes payload);
  void unicast(NodeId sender, NodeId next_hop, PayloadPtr payload);

  /// Ground-truth in-range neighbors — for tests and topology assertions
  /// only; protocol code must learn neighbors via HELLO exchange.
  std::vector<NodeId> neighbors_in_range(NodeId id) const;

  /// Folded traffic counters (sum over the per-shard slots; the sequential
  /// engine has exactly one slot, so this is the plain counter block).
  const MediumStats& stats() const;
  /// Clears both the frame counters and the snapshot gauges, so a post-
  /// warm-up reset leaves every stat block measuring the same phase.
  void reset_stats();
  const BatchStats& batch_stats() const;

  const RadioConfig& config() const { return config_; }

 private:
  struct Host {
    NodeId id;
    Position pos;
    ReceiveHandler handler;
    bool up = true;
    /// Brown-out loss override; < 0 means "use RadioConfig::loss_probability".
    double loss_override = -1.0;
    /// Netsplit partition id; frames cross only within one partition.
    std::uint32_t partition = 0;
    // Pending arrivals for collision detection: (arrival time, corrupted).
    std::vector<std::pair<sim::Time, std::shared_ptr<bool>>> arrivals;
  };

  /// Shared receiver-candidate snapshot of one grid cell: every up host in
  /// the 3x3 neighborhood, ascending NodeId, with slot and position copied
  /// into a compact array so each sender's scan stays cache-local. Valid
  /// only while `generation` matches the Medium's topology generation.
  struct CellSnapshot {
    struct Candidate {
      NodeId id;
      std::uint32_t slot;
      Position pos;
    };
    std::uint64_t generation = 0;
    std::vector<Candidate> candidates;
  };

  using DeliveryWindow = sim::EventQueue::Window;

  /// Draws loss + jitter for one receiver (from `eng`, the executing
  /// context) and either parks the delivery in a flight slot, scheduled on
  /// its own (window == nullptr) or added to the caller's
  /// coalesced-insertion window, or — with a shard router installed —
  /// hands it to the router in the receiver's node context. Identical
  /// draws and event order for the first two. `loss` is the effective loss
  /// probability (config merged with any brown-out overrides of sender and
  /// receiver).
  void deliver_to(Host& rx, const Packet& packet, sim::Engine& eng,
                  double loss, DeliveryWindow* window = nullptr);
  /// The arrival of one frame without the collision model (slot, router
  /// and restored deliveries): a detached receiver drops it, a down one
  /// counts it as dropped_down, else it is counted and handed to the
  /// receiver's handler.
  void arrive(NodeId receiver, const Packet& packet);
  /// Takes a free flight slot (or grows the table) for one delivery.
  std::uint32_t park(NodeId receiver, Packet packet, sim::Time arrival);
  /// The arrival event of one flight slot: frees it, then arrive().
  void land(std::uint32_t slot);
  /// Throws unless the deliveries wait in flight slots (see in_flight).
  void require_flight_slots() const;
  /// max(config loss, sender override).
  double sender_loss(const Host& tx) const {
    return tx.loss_override >= 0.0
               ? std::max(config_.loss_probability, tx.loss_override)
               : config_.loss_probability;
  }
  /// The effective loss of one delivery: sender_loss folded with the
  /// receiver's override.
  static double merged_loss(double tx_loss, const Host& rx) {
    return rx.loss_override >= 0.0 ? std::max(tx_loss, rx.loss_override)
                                   : tx_loss;
  }
  CellSnapshot& snapshot_for(SpatialGrid::CellKey cell);
  /// Any mutation of positions/occupancy/radio state: stale all snapshots.
  void bump_generation() { ++topo_generation_; }
  Host& host(NodeId id);
  const Host& host(NodeId id) const;
  /// The slot of an attached host, kNoSlot otherwise: ids below kDenseIds
  /// index `dense_`, larger ones go through `far_`.
  std::uint32_t slot_of(NodeId id) const {
    const auto v = id.value();
    if (v < kDenseIds) return v < dense_.size() ? dense_[v] : kNoSlot;
    const auto it = far_.find(id);
    return it == far_.end() ? kNoSlot : it->second;
  }
  /// Points `id` at `slot`; kNoSlot forgets it.
  void set_slot(NodeId id, std::uint32_t slot);

  /// Execution context of the current call: the shard engine under psim,
  /// else the sequential simulator the Medium was built on.
  sim::Engine& engine() const {
    return router_ != nullptr ? router_->current_engine() : sim_;
  }
  unsigned shard_index() const {
    return router_ != nullptr ? router_->current_shard() : 0;
  }
  MediumStats& stats_slot() { return stats_shards_[shard_index()]; }
  BatchStats& batch_stats_slot() { return batch_stats_shards_[shard_index()]; }

  sim::Engine& sim_;
  /// Non-null when `sim_` is the sequential Simulator: enables the
  /// coalesced-insertion window fast path (psim shard lanes schedule
  /// per-receiver through the router instead).
  sim::Simulator* seq_sim_ = nullptr;
  ShardRouter* router_ = nullptr;
  RadioConfig config_;
  std::vector<Host> hosts_;
  static constexpr std::uint32_t kDenseIds = 4096;
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  std::vector<std::uint32_t> dense_;  ///< id -> slot, ids < kDenseIds
  std::unordered_map<NodeId, std::uint32_t> far_;  ///< larger ids
  SpatialGrid grid_;
  /// Per-shard traffic counters, folded on demand by stats().
  std::vector<MediumStats> stats_shards_;
  mutable MediumStats stats_fold_;

  std::uint64_t topo_generation_ = 1;
  /// Per-shard broadcast snapshot caches: workers never share one.
  std::vector<std::unordered_map<SpatialGrid::CellKey, CellSnapshot>>
      snapshots_;
  std::vector<BatchStats> batch_stats_shards_;
  mutable BatchStats batch_stats_fold_;

  /// Deliveries on the air: a slot table with a free list. Each arrival
  /// event captures only (this, slot), and the frame shares its payload
  /// with the other receivers until it lands.
  struct FlightSlot {
    NodeId receiver;
    Packet packet;
    sim::Time arrival;
    std::uint64_t seq = 0;
    bool live = false;
  };
  std::vector<FlightSlot> flights_;
  std::vector<std::uint32_t> free_flights_;
};

}  // namespace manet::net
