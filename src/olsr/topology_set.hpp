#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/node_id.hpp"
#include "olsr/knowledge_graph.hpp"
#include "sim/time.hpp"

namespace manet::olsr {

using net::NodeId;

/// Topology tuple (§4.5): `last_hop` (T_last_addr) declared reachability to
/// `dest` (T_dest_addr) in a TC with sequence ANSN.
struct TopologyTuple {
  NodeId dest;
  NodeId last_hop;
  std::uint16_t ansn = 0;
  sim::Time valid_until{};
};

/// Topology information base built from TC flooding (§9.5 processing rules).
///
/// Tuples live in one flat slab sorted by (last_hop, dest): an originator's
/// advertisements form a contiguous range, so a TC replaces one range
/// in-place and `advertised_by` is a single range scan. Iteration order
/// matches the previous (last_hop, dest)-keyed std::map exactly. Mutators
/// append each (last_hop, dest) they removed or added to an optional
/// EdgeDelta — the patch for the Agent's live knowledge graph.
class TopologySet {
 public:
  /// Applies one received TC (§9.5). Returns false when the TC was stale
  /// (older ANSN than already recorded for this originator) and ignored.
  bool on_tc(sim::Time now, NodeId originator, std::uint16_t ansn,
             const std::vector<NodeId>& advertised, sim::Duration vtime,
             EdgeDelta* delta = nullptr);

  /// Returns true when any tuple was removed.
  bool expire(sim::Time now, EdgeDelta* delta = nullptr);

  /// Edges (last_hop -> dest) currently valid, sorted by (last_hop, dest).
  const std::vector<TopologyTuple>& tuples() const { return tuples_; }

  /// Destinations advertised by one originator, sorted ascending.
  std::vector<NodeId> advertised_by(NodeId last_hop) const;

  std::size_t size() const { return tuples_.size(); }

  /// Checkpoint surface: the tuple slab plus the per-originator latest-ANSN
  /// index (both in sorted storage order).
  const std::vector<std::pair<NodeId, std::uint16_t>>& latest_ansn() const {
    return latest_ansn_;
  }
  void restore(std::vector<TopologyTuple> tuples,
               std::vector<std::pair<NodeId, std::uint16_t>> latest_ansn) {
    tuples_ = std::move(tuples);
    latest_ansn_ = std::move(latest_ansn);
  }

 private:
  std::pair<std::size_t, std::size_t> origin_range(NodeId originator) const;

  std::vector<TopologyTuple> tuples_;  // sorted by (last_hop, dest)
  std::vector<std::pair<NodeId, std::uint16_t>> latest_ansn_;  // sorted by id
  std::vector<NodeId> scratch_before_;  // dest sets for the delta
  std::vector<NodeId> scratch_after_;
};

}  // namespace manet::olsr
