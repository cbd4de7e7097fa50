#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/node_id.hpp"
#include "olsr/constants.hpp"
#include "olsr/knowledge_graph.hpp"
#include "sim/time.hpp"

namespace manet::olsr {

using net::NodeId;

/// Neighbor tuple (§4.3): status follows the link set; willingness comes
/// from the neighbor's HELLOs.
struct NeighborTuple {
  NodeId id;
  Willingness willingness = Willingness::kDefault;
  bool symmetric = false;
};

/// 2-hop tuple (§4.4): `via` is the symmetric 1-hop neighbor that advertised
/// `two_hop` as one of its own symmetric neighbors. The table keeps tuples
/// as per-via rows; this flat form is what the checkpoint and inspection
/// see.
struct TwoHopTuple {
  NodeId via;
  NodeId two_hop;
  sim::Time valid_until{};
};

/// 1-hop and 2-hop neighborhood repository. Fed by the Agent from HELLOs.
///
/// Neighbors are a flat slab ascending by id. The 2-hop set is one row per
/// advertising neighbor, ascending by via: RFC 3626 §8.2.1 gives every
/// tuple one HELLO creates the same N_time, so a row holds that time once
/// beside its 2-hop ids (ascending). A HELLO that repeats its predecessor
/// is one compare and one time write, a membership change rewrites one
/// row, and expiry walks the vias. All lookups are binary searches, and
/// flattened rows iterate in the (via, two_hop) order the audit log and
/// the checkpoint rely on.
/// Mutators report whether they materially changed the table so the Agent
/// can coalesce MPR recomputation behind a dirty flag, and the ones that
/// touch 2-hop tuples append each (via, two_hop) they removed or added to
/// an optional EdgeDelta — the patch for the Agent's live knowledge graph.
///
/// The table also keeps the §8.3.1 reach rows of its owner, patched by
/// every mutator: one row per symmetric, non-WILL_NEVER neighbor, holding
/// the 2-hops it advertises that are neither the owner nor a symmetric
/// neighbor (rows that would be empty are absent). `rows_stamp()` moves
/// whenever a row does, so MPR selection re-runs only on a real change.
/// The rows are derived state: `restore` rebuilds them.
class NeighborTable {
 public:
  /// `self` is the owner, whose reach rows the table keeps.
  explicit NeighborTable(NodeId self = NodeId{}) : self_{self} {}

  /// Returns true when the tuple is new or its willingness/symmetry differ.
  bool upsert_neighbor(NodeId id, Willingness will, bool symmetric);
  /// Drops the neighbor and the 2-hop tuples it advertised.
  void remove_neighbor(NodeId id, EdgeDelta* delta = nullptr);
  std::optional<NeighborTuple> neighbor(NodeId id) const;
  std::vector<NodeId> symmetric_neighbors() const;

  /// Replaces the set of 2-hop neighbors advertised by `via` (the
  /// paper-relevant part: this is exactly the content an attacker forges),
  /// all valid until `valid_until`. `two_hops` may hold repeats in any
  /// order; a list equal to the held row (so ascending, without repeats)
  /// is recognised before any sort. Returns true when the *membership*
  /// changed — a pure validity refresh (same nodes, new expiry) returns
  /// false.
  bool set_two_hops_via(NodeId via, const std::vector<NodeId>& two_hops,
                        sim::Time valid_until, EdgeDelta* delta = nullptr);
  void drop_two_hops_via(NodeId via, EdgeDelta* delta = nullptr);
  /// Drops the rows valid until `now` or earlier; returns true when any
  /// tuple was removed.
  bool expire_two_hops(sim::Time now, EdgeDelta* delta = nullptr);

  /// For MPR selection: (via neighbor, strict 2-hop nodes reachable through
  /// it), ascending by via, inner lists sorted ascending, WILL_NEVER and
  /// non-symmetric vias and empty rows omitted.
  using Reachability = std::vector<std::pair<NodeId, std::vector<NodeId>>>;
  /// Changes whenever a reach row does; equal stamps mean equal rows.
  std::uint64_t rows_stamp() const { return rows_stamp_; }
  /// The maintained reach rows of the owner, in place.
  const Reachability& reach_rows() const { return rows_; }
  /// Copies of the maintained reach rows. `self` must be the owner the
  /// table was constructed with.
  Reachability reachability(NodeId self) const;
  void reachability(NodeId self, Reachability& out) const;

  /// All (via, two_hop) pairs currently held (for logging, inspection and
  /// the checkpoint), ascending by (via, two_hop).
  std::vector<TwoHopTuple> two_hop_tuples() const;

  /// 2-hop neighbors advertised by a specific neighbor, sorted ascending.
  std::vector<NodeId> two_hops_via(NodeId via) const;

  /// Checkpoint surface: the neighbor slab in its sorted storage order and
  /// the 2-hop tuples as two_hop_tuples() lists them. Restore expects both
  /// orders and one valid_until per via (the checkpoint decoder checks
  /// all three), and rebuilds the reach rows.
  const std::vector<NeighborTuple>& neighbor_tuples() const {
    return neighbors_;
  }
  void restore(std::vector<NeighborTuple> neighbors,
               const std::vector<TwoHopTuple>& two_hops);

 private:
  /// The 2-hop tuples of one via: one N_time, 2-hop ids ascending.
  struct TwoHopRow {
    NodeId via;
    sim::Time valid_until{};
    std::vector<NodeId> two_hops;
  };

  const NeighborTuple* find(NodeId id) const;
  /// The 2-hop ids `via` advertises (empty when it has no row).
  std::span<const NodeId> two_hop_ids(NodeId via) const;

  // --- reach-row patching ---
  /// Re-derives `via`'s row from the slabs.
  void refresh_row(NodeId via);
  /// `n` just became (or stopped being) a symmetric neighbor: drops it from
  /// (or adds it to) the rows of the vias advertising it.
  void on_symmetry_flip(NodeId n, bool symmetric);
  /// Records `rows` rewritten rows: a fresh stamp plus the work counter.
  void rows_changed(std::size_t rows);

  NodeId self_;
  std::vector<NeighborTuple> neighbors_;  // sorted by id
  std::vector<TwoHopRow> two_hops_;       // ascending by via, none empty
  Reachability rows_;                     // ascending by via, none empty
  std::uint64_t rows_stamp_ = fresh_stamp();
  std::vector<NodeId> scratch_;           // set_two_hops_via/refresh_row
  std::vector<NodeId> stale_vias_;        // expire_two_hops
};

}  // namespace manet::olsr
