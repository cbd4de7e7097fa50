#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/node_id.hpp"

namespace manet::olsr {

using net::NodeId;

/// Next value of the process-wide change-stamp sequence. The live graph
/// and the neighbor table's reach rows draw from it, so structures built
/// independently (tests, benches, a reset or restored agent) never share a
/// stamp; only equality is ever compared.
std::uint64_t fresh_stamp();

/// Edge changes made by one table mutation — what the Agent patches its
/// live knowledge graph with. Each pair is one table tuple as the table
/// keys it ((via, two_hop) or (last_hop, dest)) and stands for both arc
/// directions. Reused across calls, so steady state does not allocate.
struct EdgeDelta {
  std::vector<std::pair<NodeId, NodeId>> removed;
  std::vector<std::pair<NodeId, NodeId>> added;
  void clear() {
    removed.clear();
    added.clear();
  }
  /// Appends (key, x) to `removed` for every x only in `before` and to
  /// `added` for every x only in `after`; both lists ascending.
  void diff(NodeId key, std::span<const NodeId> before,
            std::span<const NodeId> after);
};

/// Directed adjacency a node *believes* in: its link set, 2-hop set and
/// the TC-derived topology set merged (§10).
///
/// The graph is patched in place, never rebuilt: every arc carries a
/// reference count because one edge can come from several tuples (the link
/// set, either 2-hop direction, a TC tuple), and it leaves the graph only
/// when its last source does. Nodes get dense slots in first-seen order,
/// found through a direct id index for ids below kDenseIds (a binary
/// search over the id-sorted slots for any other id); each slot's
/// adjacency is a slab ascending by *target id* — the order the
/// trace-pinned BFS tie-breaks rely on. `stamp()` changes whenever the arc
/// set does and is drawn from one process-wide sequence, so equal stamps
/// mean equal arc sets (a copy shares its source's stamp until either is
/// patched); routing re-runs its BFS only when the stamp moved.
///
/// The graph also logs the arcs that entered or left the arc set since
/// the log last restarted, up to kLogCapacity of them: routing restarts it
/// after each run and reads it on the next to tell whether any change can
/// move a route. A full log, or one cleared with the graph, cannot tell.
class KnowledgeGraph {
 public:
  static constexpr std::uint32_t kNpos = 0xFFFFFFFFu;

  /// One out-arc: target slot plus the number of sources asserting it.
  struct Arc {
    std::uint32_t to;
    std::uint32_t refs;
  };

  /// One arc that entered (`added`) or left the arc set, by slot.
  struct ArcChange {
    std::uint32_t from;
    std::uint32_t to;
    bool added;
  };
  /// Changes the log holds at most before it stops telling.
  static constexpr std::size_t kLogCapacity = 128;

  /// Adds one reference to from -> to; true when the arc is new.
  bool add_arc(NodeId from, NodeId to);
  /// Drops one reference; true when the arc left the graph. Dropping an
  /// absent arc is a no-op.
  bool remove_arc(NodeId from, NodeId to);
  /// Both directions; return the number of arcs that entered (left) the
  /// arc set, 0 to 2.
  int add_edge(NodeId a, NodeId b) { return add_arc(a, b) + add_arc(b, a); }
  int remove_edge(NodeId a, NodeId b) {
    return remove_arc(a, b) + remove_arc(b, a);
  }
  void clear();

  /// Distinct arcs (reference counts collapsed).
  std::size_t arc_count() const { return arc_count_; }
  /// References held on from -> to; 0 when absent.
  std::uint32_t refs(NodeId from, NodeId to) const;
  /// The arc set, sorted by (from, to).
  std::vector<std::pair<NodeId, NodeId>> arcs() const;
  std::uint64_t stamp() const { return stamp_; }

  // Traversal view. Slots are stable for the graph's lifetime; a slot
  // whose arcs all left stays, with an empty adjacency.
  std::size_t slot_count() const { return ids_.size(); }
  NodeId id_at(std::uint32_t slot) const { return ids_[slot]; }
  /// Slot of `id`, or kNpos when the graph never saw it.
  std::uint32_t slot_of(NodeId id) const;
  /// Out-arcs of one slot, ascending by target id.
  std::span<const Arc> arcs_from(std::uint32_t slot) const {
    return out_[slot];
  }
  /// Every slot, ascending by node id.
  std::span<const std::uint32_t> slots_by_id() const { return by_id_; }

  /// The arc changes since the log restarted at `stamp`, oldest first, or
  /// nullopt when the log cannot tell: it restarted at another stamp (or
  /// never), overflowed, or the graph was cleared since.
  std::optional<std::span<const ArcChange>> changes_since(
      std::uint64_t stamp) const {
    if (!log_known_ || stamp != log_base_) return std::nullopt;
    return std::span<const ArcChange>{log_};
  }
  /// Empties the change log and restarts it at the current stamp.
  void restart_log() {
    log_.clear();
    log_known_ = true;
    log_base_ = stamp_;
  }

 private:
  /// Node ids below this index their slot directly.
  static constexpr std::uint32_t kDenseIds = 4096;
  std::uint32_t slot_or_insert(NodeId id);
  /// Index of the first arc in `from_slot`'s slab not below `to`.
  std::size_t lower_arc(std::uint32_t from_slot, NodeId to) const;
  /// Records one arc-set change: a fresh stamp and a log entry.
  void changed(std::uint32_t from, std::uint32_t to, bool added);

  std::vector<NodeId> ids_;             // slot -> node id
  std::vector<std::vector<Arc>> out_;   // slot -> arcs ascending by id
  std::vector<std::uint32_t> by_id_;    // slots sorted by node id
  std::vector<std::uint32_t> dense_;    // id -> slot (kNpos), ids < kDenseIds
  std::size_t arc_count_ = 0;
  std::uint64_t stamp_ = fresh_stamp();
  std::vector<ArcChange> log_;  // since log_base_, at most kLogCapacity
  std::uint64_t log_base_ = 0;
  bool log_known_ = false;      // log_ holds every change since log_base_
};

}  // namespace manet::olsr
