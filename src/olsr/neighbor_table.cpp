#include "olsr/neighbor_table.hpp"

#include <algorithm>
#include <cassert>

#include "obs/obs.hpp"

namespace manet::olsr {
namespace {

// §8.3.1 leaves WILL_NEVER neighbors out of MPR selection altogether.
bool can_relay(const NeighborTuple& t) {
  return t.symmetric && t.willingness != Willingness::kNever;
}

bool before_via(const std::pair<NodeId, std::vector<NodeId>>& row,
                NodeId via) {
  return row.first < via;
}

}  // namespace

const NeighborTuple* NeighborTable::find(NodeId id) const {
  auto it = std::lower_bound(
      neighbors_.begin(), neighbors_.end(), id,
      [](const NeighborTuple& t, NodeId n) { return t.id < n; });
  return it != neighbors_.end() && it->id == id ? &*it : nullptr;
}

bool NeighborTable::upsert_neighbor(NodeId id, Willingness will,
                                    bool symmetric) {
  auto it = std::lower_bound(
      neighbors_.begin(), neighbors_.end(), id,
      [](const NeighborTuple& t, NodeId n) { return t.id < n; });
  NeighborTuple before{id, Willingness::kDefault, false};  // as if absent
  if (it == neighbors_.end() || it->id != id) {
    it = neighbors_.insert(it, NeighborTuple{id, will, symmetric});
  } else {
    before = *it;
    if (before.willingness == will && before.symmetric == symmetric)
      return false;
    it->willingness = will;
    it->symmetric = symmetric;
  }
  if (before.symmetric != symmetric) on_symmetry_flip(id, symmetric);
  if (can_relay(before) != can_relay(*it)) refresh_row(id);
  return true;
}

void NeighborTable::remove_neighbor(NodeId id, EdgeDelta* delta) {
  auto it = std::lower_bound(
      neighbors_.begin(), neighbors_.end(), id,
      [](const NeighborTuple& t, NodeId n) { return t.id < n; });
  bool was_symmetric = false;
  if (it != neighbors_.end() && it->id == id) {
    was_symmetric = it->symmetric;
    neighbors_.erase(it);
  }
  drop_two_hops_via(id, delta);
  if (was_symmetric) on_symmetry_flip(id, false);
}

std::optional<NeighborTuple> NeighborTable::neighbor(NodeId id) const {
  const auto* t = find(id);
  if (t == nullptr) return std::nullopt;
  return *t;
}

std::vector<NodeId> NeighborTable::symmetric_neighbors() const {
  std::vector<NodeId> out;
  for (const auto& t : neighbors_)
    if (t.symmetric) out.push_back(t.id);
  return out;
}

Willingness NeighborTable::willingness_of(NodeId id) const {
  const auto* t = find(id);
  return t == nullptr ? Willingness::kDefault : t->willingness;
}

bool NeighborTable::is_symmetric_neighbor(NodeId id) const {
  const auto* t = find(id);
  return t != nullptr && t->symmetric;
}

std::pair<std::size_t, std::size_t> NeighborTable::via_range(
    NodeId via) const {
  const auto lo = std::lower_bound(
      two_hops_.begin(), two_hops_.end(), via,
      [](const TwoHopTuple& t, NodeId v) { return t.via < v; });
  auto hi = lo;
  while (hi != two_hops_.end() && hi->via == via) ++hi;
  return {static_cast<std::size_t>(lo - two_hops_.begin()),
          static_cast<std::size_t>(hi - two_hops_.begin())};
}

bool NeighborTable::set_two_hops_via(NodeId via,
                                     const std::vector<NodeId>& two_hops,
                                     sim::Time valid_until,
                                     EdgeDelta* delta) {
  scratch_.assign(two_hops.begin(), two_hops.end());
  std::sort(scratch_.begin(), scratch_.end());
  scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                 scratch_.end());

  const auto [lo, hi] = via_range(via);
  const bool same_membership =
      hi - lo == scratch_.size() &&
      std::equal(scratch_.begin(), scratch_.end(), two_hops_.begin() + lo,
                 [](NodeId n, const TwoHopTuple& t) { return n == t.two_hop; });
  if (same_membership) {
    for (std::size_t i = lo; i < hi; ++i)
      two_hops_[i].valid_until = valid_until;
    return false;
  }

  if (delta != nullptr) {
    std::vector<NodeId> before;
    before.reserve(hi - lo);
    for (std::size_t i = lo; i < hi; ++i)
      before.push_back(two_hops_[i].two_hop);
    delta->diff(via, before, scratch_);
  }

  // Replace the contiguous per-via range wholesale; the staged list is
  // sorted, so the slab stays ordered by (via, two_hop).
  std::vector<TwoHopTuple> fresh;
  fresh.reserve(scratch_.size());
  for (auto th : scratch_) fresh.push_back(TwoHopTuple{via, th, valid_until});
  auto it = two_hops_.erase(two_hops_.begin() + lo, two_hops_.begin() + hi);
  two_hops_.insert(it, fresh.begin(), fresh.end());
  refresh_row(via);
  return true;
}

void NeighborTable::drop_two_hops_via(NodeId via, EdgeDelta* delta) {
  const auto [lo, hi] = via_range(via);
  if (delta != nullptr)
    for (std::size_t i = lo; i < hi; ++i)
      delta->removed.emplace_back(via, two_hops_[i].two_hop);
  two_hops_.erase(two_hops_.begin() + lo, two_hops_.begin() + hi);
  refresh_row(via);
}

bool NeighborTable::expire_two_hops(sim::Time now, EdgeDelta* delta) {
  // The slab is via-ordered, so the stale vias come out ascending.
  stale_vias_.clear();
  std::erase_if(two_hops_, [&](const TwoHopTuple& t) {
    if (t.valid_until > now) return false;
    if (delta != nullptr) delta->removed.emplace_back(t.via, t.two_hop);
    if (stale_vias_.empty() || stale_vias_.back() != t.via)
      stale_vias_.push_back(t.via);
    return true;
  });
  for (const auto via : stale_vias_) refresh_row(via);
  return !stale_vias_.empty();
}

NeighborTable::Reachability NeighborTable::reachability(
    [[maybe_unused]] NodeId self) const {
  assert(self == self_);
  return rows_;
}

void NeighborTable::reachability([[maybe_unused]] NodeId self,
                                 Reachability& out) const {
  assert(self == self_);
  out = rows_;
}

std::vector<NodeId> NeighborTable::two_hops_via(NodeId via) const {
  const auto [lo, hi] = via_range(via);
  std::vector<NodeId> out;
  out.reserve(hi - lo);
  for (std::size_t i = lo; i < hi; ++i) out.push_back(two_hops_[i].two_hop);
  return out;
}

void NeighborTable::restore(std::vector<NeighborTuple> neighbors,
                            std::vector<TwoHopTuple> two_hops) {
  neighbors_ = std::move(neighbors);
  two_hops_ = std::move(two_hops);
  rows_.clear();
  for (const auto& t : neighbors_) refresh_row(t.id);
  rows_stamp_ = fresh_stamp();
}

// ------------------------------------------------------ reach-row patching

void NeighborTable::refresh_row(NodeId via) {
  scratch_.clear();
  const auto* nb = find(via);
  if (nb != nullptr && can_relay(*nb)) {
    const auto [lo, hi] = via_range(via);
    for (std::size_t i = lo; i < hi; ++i) {
      const NodeId th = two_hops_[i].two_hop;
      if (th != self_ && !is_symmetric_neighbor(th)) scratch_.push_back(th);
    }
  }
  auto it = std::lower_bound(rows_.begin(), rows_.end(), via, before_via);
  const bool present = it != rows_.end() && it->first == via;
  if (scratch_.empty()) {
    if (!present) return;
    rows_.erase(it);
  } else if (!present) {
    rows_.emplace(it, via, scratch_);
  } else if (it->second != scratch_) {
    it->second.swap(scratch_);
  } else {
    return;
  }
  rows_changed(1);
}

void NeighborTable::on_symmetry_flip(NodeId n, bool symmetric) {
  if (n == self_) return;  // never in a row either way
  std::size_t changed = 0;
  if (symmetric) {
    // A symmetric neighbor is no strict 2-hop: take it out of every row.
    for (auto it = rows_.begin(); it != rows_.end();) {
      auto& row = it->second;
      const auto pos = std::lower_bound(row.begin(), row.end(), n);
      if (pos == row.end() || *pos != n) {
        ++it;
        continue;
      }
      row.erase(pos);
      ++changed;
      it = row.empty() ? rows_.erase(it) : std::next(it);
    }
  } else {
    // A strict 2-hop again wherever a relay-capable neighbor advertises it.
    for (const auto& t : neighbors_) {
      if (!can_relay(t)) continue;
      const bool advertised = std::binary_search(
          two_hops_.begin(), two_hops_.end(), TwoHopTuple{t.id, n, {}},
          [](const TwoHopTuple& a, const TwoHopTuple& b) {
            return std::pair{a.via, a.two_hop} < std::pair{b.via, b.two_hop};
          });
      if (!advertised) continue;
      auto it = std::lower_bound(rows_.begin(), rows_.end(), t.id, before_via);
      if (it == rows_.end() || it->first != t.id)
        it = rows_.emplace(it, t.id, std::vector<NodeId>{});
      auto& row = it->second;
      row.insert(std::lower_bound(row.begin(), row.end(), n), n);
      ++changed;
    }
  }
  if (changed > 0) rows_changed(changed);
}

void NeighborTable::rows_changed(std::size_t rows) {
  rows_stamp_ = fresh_stamp();
  obs::hit(obs::Hot::kMprRowUpdates, rows);
}

}  // namespace manet::olsr
