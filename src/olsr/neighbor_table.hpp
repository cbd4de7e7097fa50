#pragma once

#include <cstdint>
#include <optional>
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
/// `two_hop` as one of its own symmetric neighbors.
struct TwoHopTuple {
  NodeId via;
  NodeId two_hop;
  sim::Time valid_until{};
};

/// 1-hop and 2-hop neighborhood repository. Fed by the Agent from HELLOs.
///
/// Both tables are flat sorted slabs: neighbors ascending by id, 2-hop
/// tuples ascending by (via, two_hop). All lookups are binary searches, the
/// per-via 2-hop set is one contiguous range, and iteration order matches
/// the previous std::map layout exactly (the audit log depends on it).
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
  Willingness willingness_of(NodeId id) const;

  /// Replaces the set of 2-hop neighbors advertised by `via` (the
  /// paper-relevant part: this is exactly the content an attacker forges).
  /// Returns true when the *membership* changed — a pure validity refresh
  /// (same nodes, newer expiry) returns false.
  bool set_two_hops_via(NodeId via, const std::vector<NodeId>& two_hops,
                        sim::Time valid_until, EdgeDelta* delta = nullptr);
  void drop_two_hops_via(NodeId via, EdgeDelta* delta = nullptr);
  /// Returns true when any tuple was removed.
  bool expire_two_hops(sim::Time now, EdgeDelta* delta = nullptr);

  /// For MPR selection: (via neighbor, strict 2-hop nodes reachable through
  /// it), ascending by via, inner lists sorted ascending, WILL_NEVER and
  /// non-symmetric vias and empty rows omitted.
  using Reachability = std::vector<std::pair<NodeId, std::vector<NodeId>>>;
  /// Changes whenever a reach row does; equal stamps mean equal rows.
  std::uint64_t rows_stamp() const { return rows_stamp_; }
  /// Copies of the maintained reach rows. `self` must be the owner the
  /// table was constructed with.
  Reachability reachability(NodeId self) const;
  void reachability(NodeId self, Reachability& out) const;

  /// All (via, two_hop) pairs currently valid (for logging/inspection),
  /// ascending by (via, two_hop).
  const std::vector<TwoHopTuple>& two_hop_tuples() const { return two_hops_; }

  /// 2-hop neighbors advertised by a specific neighbor, sorted ascending.
  std::vector<NodeId> two_hops_via(NodeId via) const;

  /// Checkpoint surface: raw slabs in their sorted storage order. Restore
  /// expects that order (the checkpoint decoder checks it) and rebuilds the
  /// reach rows.
  const std::vector<NeighborTuple>& neighbor_tuples() const {
    return neighbors_;
  }
  void restore(std::vector<NeighborTuple> neighbors,
               std::vector<TwoHopTuple> two_hops);

 private:
  const NeighborTuple* find(NodeId id) const;
  bool is_symmetric_neighbor(NodeId id) const;
  // Iterator range of two_hops_ advertised by `via`.
  std::pair<std::size_t, std::size_t> via_range(NodeId via) const;

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
  std::vector<TwoHopTuple> two_hops_;     // sorted by (via, two_hop)
  Reachability rows_;                     // ascending by via, none empty
  std::uint64_t rows_stamp_ = fresh_stamp();
  std::vector<NodeId> scratch_;           // set_two_hops_via/refresh_row
  std::vector<NodeId> stale_vias_;        // expire_two_hops
};

}  // namespace manet::olsr
