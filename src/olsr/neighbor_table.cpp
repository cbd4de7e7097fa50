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

/// First 2-hop row of `rows` whose via is not below `via`.
template <typename Rows>
auto lower_row(Rows& rows, NodeId via) {
  return std::lower_bound(rows.begin(), rows.end(), via,
                          [](const auto& r, NodeId v) { return r.via < v; });
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

std::span<const NodeId> NeighborTable::two_hop_ids(NodeId via) const {
  const auto it = lower_row(two_hops_, via);
  if (it == two_hops_.end() || it->via != via) return {};
  return it->two_hops;
}

bool NeighborTable::set_two_hops_via(NodeId via,
                                     const std::vector<NodeId>& two_hops,
                                     sim::Time valid_until,
                                     EdgeDelta* delta) {
  auto it = lower_row(two_hops_, via);
  const bool held = it != two_hops_.end() && it->via == via;
  // A repeated HELLO lists what the row holds, in the row's own order.
  if (held && two_hops == it->two_hops) {
    it->valid_until = valid_until;
    return false;
  }

  scratch_.assign(two_hops.begin(), two_hops.end());
  std::sort(scratch_.begin(), scratch_.end());
  scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                 scratch_.end());
  const auto before = held ? std::span<const NodeId>{it->two_hops}
                           : std::span<const NodeId>{};
  if (std::ranges::equal(scratch_, before)) {
    if (held) it->valid_until = valid_until;
    return false;
  }
  if (delta != nullptr) delta->diff(via, before, scratch_);

  if (scratch_.empty()) {
    two_hops_.erase(it);
  } else if (held) {
    it->valid_until = valid_until;
    it->two_hops.swap(scratch_);
  } else {
    two_hops_.insert(it, TwoHopRow{via, valid_until, scratch_});
  }
  refresh_row(via);
  return true;
}

void NeighborTable::drop_two_hops_via(NodeId via, EdgeDelta* delta) {
  const auto it = lower_row(two_hops_, via);
  if (it != two_hops_.end() && it->via == via) {
    if (delta != nullptr)
      for (const auto th : it->two_hops) delta->removed.emplace_back(via, th);
    two_hops_.erase(it);
  }
  refresh_row(via);
}

bool NeighborTable::expire_two_hops(sim::Time now, EdgeDelta* delta) {
  // Rows ascend by via, so the stale vias come out ascending.
  stale_vias_.clear();
  std::erase_if(two_hops_, [&](const TwoHopRow& r) {
    if (r.valid_until > now) return false;
    if (delta != nullptr)
      for (const auto th : r.two_hops) delta->removed.emplace_back(r.via, th);
    stale_vias_.push_back(r.via);
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

std::vector<TwoHopTuple> NeighborTable::two_hop_tuples() const {
  std::vector<TwoHopTuple> out;
  for (const auto& r : two_hops_)
    for (const auto th : r.two_hops) out.push_back({r.via, th, r.valid_until});
  return out;
}

std::vector<NodeId> NeighborTable::two_hops_via(NodeId via) const {
  const auto ids = two_hop_ids(via);
  return {ids.begin(), ids.end()};
}

void NeighborTable::restore(std::vector<NeighborTuple> neighbors,
                            const std::vector<TwoHopTuple>& two_hops) {
  neighbors_ = std::move(neighbors);
  two_hops_.clear();
  for (const auto& t : two_hops) {
    if (two_hops_.empty() || two_hops_.back().via != t.via)
      two_hops_.push_back(TwoHopRow{t.via, t.valid_until, {}});
    two_hops_.back().two_hops.push_back(t.two_hop);
  }
  rows_.clear();
  for (const auto& t : neighbors_) refresh_row(t.id);
  rows_stamp_ = fresh_stamp();
}

// ------------------------------------------------------ reach-row patching

void NeighborTable::refresh_row(NodeId via) {
  scratch_.clear();
  const auto* nb = find(via);
  if (nb != nullptr && can_relay(*nb)) {
    // The 2-hop ids and the neighbor slab both ascend: one walk drops the
    // symmetric neighbors.
    auto t = neighbors_.begin();
    for (const auto th : two_hop_ids(via)) {
      while (t != neighbors_.end() && t->id < th) ++t;
      const bool symmetric = t != neighbors_.end() && t->id == th &&
                             t->symmetric;
      if (th != self_ && !symmetric) scratch_.push_back(th);
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
      const auto ids = two_hop_ids(t.id);
      if (!std::binary_search(ids.begin(), ids.end(), n)) continue;
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
