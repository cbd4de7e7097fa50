#pragma once

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/position.hpp"

namespace manet::net {

/// Uniform-grid spatial index over 2-D points. With cell size >= the query
/// radius, every point within that radius of `p` lives in the 3x3 cell
/// neighborhood around `p`, so a range query touches O(local density)
/// points instead of O(N). The Medium uses it to find broadcast receivers;
/// the topology helpers use it for adjacency and min-separation checks.
///
/// Ids are opaque 32-bit handles chosen by the caller (the Medium stores
/// host slots, topology stores position indices).
///
/// Determinism contract: enumeration order of `for_each_candidate` /
/// `for_each_in_neighborhood` is a deterministic function of the
/// insert/erase history, but is otherwise arbitrary — callers that need a
/// canonical order (the Medium's ascending-NodeId delivery order) sort the
/// gathered candidates themselves.
class SpatialGrid {
 public:
  /// Opaque identifier of one grid cell (packed integer cell coordinates).
  /// Two points share a CellKey iff they fall in the same cell, so the
  /// Medium keys its per-cell receiver snapshots by it.
  using CellKey = std::uint64_t;

  /// `cell_size` must be positive and should equal the largest query radius
  /// for the 3x3 neighborhood guarantee to hold.
  explicit SpatialGrid(double cell_size);

  void insert(std::uint32_t id, Position p);
  void erase(std::uint32_t id, Position p);
  /// Moves an id; cheap no-op when the position stays within its cell.
  void relocate(std::uint32_t id, Position from, Position to);
  /// Renames an id in place (the Medium compacts host slots on detach).
  void replace(std::uint32_t old_id, std::uint32_t new_id, Position p);
  void clear();

  /// The cell `p` falls into. Stable across inserts/erases.
  CellKey cell_of(Position p) const { return key(coord(p.x), coord(p.y)); }

  /// Calls fn(id) for every point in the 3x3 cell neighborhood of `p` — a
  /// superset of the points within cell_size of `p`; callers do the exact
  /// distance test. Enumeration order is deterministic for a given
  /// insert/erase history (callers that need a canonical order sort).
  template <typename Fn>
  void for_each_candidate(Position p, Fn&& fn) const {
    for_each_in_neighborhood(cell_of(p), std::forward<Fn>(fn));
  }

  /// Same enumeration as `for_each_candidate`, but around an explicit cell:
  /// every point whose distance to any point of cell `center` can be within
  /// cell_size lives in this 3x3 neighborhood. Used by the Medium to build
  /// one shared candidate snapshot per occupied cell per broadcast round.
  template <typename Fn>
  void for_each_in_neighborhood(CellKey center, Fn&& fn) const {
    const auto cx = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(center >> 32));
    const auto cy = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(center & 0xFFFFFFFFULL));
    for (std::int32_t dx = -1; dx <= 1; ++dx) {
      for (std::int32_t dy = -1; dy <= 1; ++dy) {
        const auto it = cells_.find(key(cx + dx, cy + dy));
        if (it == cells_.end()) continue;
        for (const auto id : it->second) fn(id);
      }
    }
  }

 private:
  static CellKey key(std::int32_t cx, std::int32_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint32_t>(cy);
  }
  std::int32_t coord(double v) const {
    return static_cast<std::int32_t>(std::floor(v * inv_cell_));
  }

  double inv_cell_;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> cells_;
};

}  // namespace manet::net
