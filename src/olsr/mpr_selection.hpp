#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "net/node_id.hpp"
#include "olsr/constants.hpp"

namespace manet::olsr {

using net::NodeId;

/// One neighbor of N and its willingness.
using MprNeighbor = std::pair<NodeId, Willingness>;
/// One reach row: a 1-hop neighbor and the strict 2-hop nodes reachable
/// through it, ascending.
using ReachRow = std::pair<NodeId, std::vector<NodeId>>;

/// Inputs to MPR selection (RFC 3626 §8.3.1), decoupled from the tables so
/// the heuristic is a pure, property-testable function. Both lists are flat
/// sorted slabs (ascending by id / by via, inner lists ascending) so the
/// selection runs on contiguous memory.
struct MprInputs {
  /// Symmetric 1-hop neighbors and their willingness (N in the RFC),
  /// ascending by id.
  std::vector<MprNeighbor> neighbors;
  /// For each 1-hop neighbor, the strict 2-hop nodes reachable through it
  /// (derived from N2), ascending by via with sorted inner lists. Neighbors
  /// with willingness NEVER must be excluded by the caller
  /// (NeighborTable::reachability already does).
  std::vector<ReachRow> reach;
};

/// Reusable working memory for select_mprs, so the per-HELLO path does not
/// allocate in steady state. The pass never sorts: it indexes the strict
/// 2-hop nodes once, by merging the already-sorted rows, and then works on
/// flat arrays — each row as 2-hop indices, a provider count per 2-hop
/// node, and covered/chosen flags.
struct MprScratch {
  std::vector<NodeId> two_hops;          // union of the rows, ascending
  std::vector<NodeId> merged;            // merge staging
  std::vector<std::size_t> runs;         // merge run bounds
  std::vector<std::uint32_t> cells;      // rows back to back, as indices
  std::vector<std::size_t> row_at;       // row r is cells[row_at[r], row_at[r+1])
  std::vector<std::uint32_t> providers;  // per 2-hop node: rows reaching it
  std::vector<std::uint8_t> uncovered;   // per 2-hop node
  std::vector<std::uint8_t> chosen;      // per row
};

/// RFC 3626 §8.3.1 heuristic:
///  1. WILL_ALWAYS neighbors are always MPRs.
///  2. A neighbor that is the only one covering some 2-hop node is an MPR.
///  3. Remaining uncovered 2-hop nodes are covered greedily by descending
///     reachability (number of still-uncovered 2-hop nodes), ties broken by
///     higher willingness, then larger total reach (degree), then lower id
///     (for determinism).
/// An optional final pass drops redundant MPRs (coverage preserved).
/// The result is sorted ascending.
std::vector<NodeId> select_mprs(const MprInputs& inputs,
                                bool prune_redundant = false);

/// Scratch-buffer variant: `out` is replaced with the selected set.
void select_mprs(const MprInputs& inputs, bool prune_redundant,
                 MprScratch& scratch, std::vector<NodeId>& out);
/// The same over both lists read in place (the Agent passes
/// NeighborTable's maintained reach rows, uncopied).
void select_mprs(std::span<const MprNeighbor> neighbors,
                 std::span<const ReachRow> reach, bool prune_redundant,
                 MprScratch& scratch, std::vector<NodeId>& out);

/// True if `mprs` (sorted ascending) covers every strict 2-hop node of
/// `inputs` — the safety property the paper's attack breaks from the
/// victim's point of view.
bool covers_all_two_hops(const MprInputs& inputs,
                         const std::vector<NodeId>& mprs);

}  // namespace manet::olsr
