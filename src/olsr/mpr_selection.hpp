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
/// allocate in steady state. A run numbers the strict 2-hop nodes in the
/// order the rows first list them, through an open-addressed id -> number
/// table, and holds each row as a bit row over that numbering: sole
/// providers, coverage and greedy gains are then word operations. Each
/// Agent owns one; nothing is shared between instances.
struct MprScratch {
  /// One entry of the id -> number table, live only while `run` is the
  /// current run, so a run starts without clearing the table.
  struct Slot {
    std::uint64_t run = 0;
    NodeId id;
    std::uint32_t number = 0;
  };
  std::vector<Slot> slots;             // power-of-two size, at most half full
  std::uint64_t run = 0;               // stamp of the current run
  std::vector<NodeId> two_hops;        // number -> id
  std::vector<std::uint32_t> cells;    // rows back to back, as numbers
  std::vector<std::uint64_t> bits;     // row r is words [r*W, (r+1)*W)
  std::vector<std::uint64_t> masks;    // seen once | seen twice | uncovered
  std::vector<Willingness> will;       // per row
  std::vector<std::uint8_t> chosen;    // per row
  std::vector<std::size_t> bound;      // per row: its gain can be no more
  std::vector<NodeId> always;          // WILL_ALWAYS members without a row
};

/// RFC 3626 §8.3.1 heuristic:
///  1. WILL_ALWAYS neighbors are always MPRs.
///  2. A neighbor that is the only one covering some 2-hop node is an MPR.
///  3. Remaining uncovered 2-hop nodes are covered greedily by descending
///     reachability (number of still-uncovered 2-hop nodes), ties broken by
///     higher willingness, then larger total reach (degree), then lower id
///     (for determinism).
/// A via missing from `neighbors` counts as WILL_DEFAULT. The result is
/// sorted ascending.
std::vector<NodeId> select_mprs(const MprInputs& inputs);

/// Scratch-buffer variant: `out` is replaced with the selected set.
void select_mprs(const MprInputs& inputs, MprScratch& scratch,
                 std::vector<NodeId>& out);
/// The same over both lists read in place (the Agent passes
/// NeighborTable's maintained reach rows, uncopied).
void select_mprs(std::span<const MprNeighbor> neighbors,
                 std::span<const ReachRow> reach, MprScratch& scratch,
                 std::vector<NodeId>& out);

/// True if `mprs` (sorted ascending) covers every strict 2-hop node of
/// `inputs` — the safety property the paper's attack breaks from the
/// victim's point of view.
bool covers_all_two_hops(const MprInputs& inputs,
                         const std::vector<NodeId>& mprs);

}  // namespace manet::olsr
