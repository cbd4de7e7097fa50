// A deliberately naive model of RFC 3626 §8.3.1 MPR selection over
// std::map/std::set, written from the RFC rather than from the slab code:
// the oracle for select_mprs and for the neighbor table's maintained reach
// rows. Quadratic and allocation-heavy on purpose.
//
// One ordering follows select_mprs's documented contract instead of the
// RFC: in the greedy step the RFC ranks candidates by willingness first and
// reachability second; select_mprs (and so this model) ranks by
// reachability, then willingness, then D(y), then lowest id.

#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "olsr/mpr_selection.hpp"
#include "olsr/neighbor_table.hpp"

namespace manet::olsr::reference {

/// N: the symmetric 1-hop neighbors with their willingness.
using Neighbors = std::map<NodeId, Willingness>;
/// For each neighbor y, the nodes of N2 reachable through it.
using Reach = std::map<NodeId, std::set<NodeId>>;

/// §8.3.1's N2 per neighbor, read off the tables: the 2-hop tuples of
/// symmetric, non-WILL_NEVER neighbors, minus `self` and minus symmetric
/// neighbors. Neighbors reaching nothing get no entry.
inline Reach reach_rows(NodeId self, const std::vector<NeighborTuple>& nbrs,
                        const std::vector<TwoHopTuple>& two_hops) {
  std::map<NodeId, NeighborTuple> by_id;
  for (const auto& t : nbrs) by_id[t.id] = t;
  const auto symmetric = [&](NodeId n) {
    const auto it = by_id.find(n);
    return it != by_id.end() && it->second.symmetric;
  };
  Reach out;
  for (const auto& t : two_hops) {
    const auto via = by_id.find(t.via);
    if (via == by_id.end() || !via->second.symmetric ||
        via->second.willingness == Willingness::kNever)
      continue;
    if (t.two_hop == self || symmetric(t.two_hop)) continue;
    out[t.via].insert(t.two_hop);
  }
  return out;
}

/// The RFC heuristic, steps 1-4. Neighbors with a reach entry but missing
/// from N count as WILL_DEFAULT.
inline std::set<NodeId> select(const Neighbors& n, const Reach& reach) {
  const auto will = [&](NodeId y) {
    const auto it = n.find(y);
    return it == n.end() ? Willingness::kDefault : it->second;
  };
  std::set<NodeId> n2;
  for (const auto& [y, nodes] : reach) n2.insert(nodes.begin(), nodes.end());
  const auto covered_by = [&](const std::set<NodeId>& mprs) {
    std::set<NodeId> covered;
    for (const auto y : mprs)
      if (const auto it = reach.find(y); it != reach.end())
        covered.insert(it->second.begin(), it->second.end());
    return covered;
  };

  std::set<NodeId> mprs;
  // 1. Every WILL_ALWAYS member of N.
  for (const auto& [y, w] : n)
    if (w == Willingness::kAlways) mprs.insert(y);
  // 3. The only neighbor providing reachability to some node of N2.
  for (const auto x : n2) {
    std::set<NodeId> providers;
    for (const auto& [y, nodes] : reach)
      if (nodes.contains(x)) providers.insert(y);
    if (providers.size() == 1) mprs.insert(*providers.begin());
  }
  // 4. While some node of N2 is uncovered: the neighbor reaching the most
  // uncovered nodes; then higher willingness; then larger D(y) (all it
  // reaches); then lower id.
  for (;;) {
    std::set<NodeId> uncovered;
    std::ranges::set_difference(n2, covered_by(mprs),
                                std::inserter(uncovered, uncovered.end()));
    if (uncovered.empty()) break;
    std::optional<NodeId> best;
    std::tuple<std::size_t, int, std::size_t> best_key{};
    for (const auto& [y, nodes] : reach) {
      if (mprs.contains(y)) continue;
      const auto gain = static_cast<std::size_t>(std::ranges::count_if(
          nodes, [&](NodeId x) { return uncovered.contains(x); }));
      if (gain == 0) continue;
      const std::tuple key{gain, static_cast<int>(will(y)), nodes.size()};
      if (!best || key > best_key) {  // ascending map: lowest id wins ties
        best = y;
        best_key = key;
      }
    }
    if (!best) break;
    mprs.insert(*best);
  }
  return mprs;
}

/// The model's reach in the flat, sorted layout the code uses.
inline NeighborTable::Reachability flat(const Reach& reach) {
  NeighborTable::Reachability out;
  for (const auto& [y, nodes] : reach)
    out.emplace_back(y, std::vector<NodeId>(nodes.begin(), nodes.end()));
  return out;
}

}  // namespace manet::olsr::reference
