#include "olsr/neighbor_table.hpp"

#include <algorithm>

namespace manet::olsr {

bool NeighborTable::upsert_neighbor(NodeId id, Willingness will,
                                    bool symmetric) {
  auto it = std::lower_bound(
      neighbors_.begin(), neighbors_.end(), id,
      [](const NeighborTuple& t, NodeId n) { return t.id < n; });
  if (it == neighbors_.end() || it->id != id) {
    neighbors_.insert(it, NeighborTuple{id, will, symmetric});
    return true;
  }
  const bool changed = it->willingness != will || it->symmetric != symmetric;
  it->willingness = will;
  it->symmetric = symmetric;
  return changed;
}

void NeighborTable::remove_neighbor(NodeId id, EdgeDelta* delta) {
  auto it = std::lower_bound(
      neighbors_.begin(), neighbors_.end(), id,
      [](const NeighborTuple& t, NodeId n) { return t.id < n; });
  if (it != neighbors_.end() && it->id == id) neighbors_.erase(it);
  drop_two_hops_via(id, delta);
}

std::optional<NeighborTuple> NeighborTable::neighbor(NodeId id) const {
  auto it = std::lower_bound(
      neighbors_.begin(), neighbors_.end(), id,
      [](const NeighborTuple& t, NodeId n) { return t.id < n; });
  if (it == neighbors_.end() || it->id != id) return std::nullopt;
  return *it;
}

std::vector<NodeId> NeighborTable::symmetric_neighbors() const {
  std::vector<NodeId> out;
  for (const auto& t : neighbors_)
    if (t.symmetric) out.push_back(t.id);
  return out;
}

Willingness NeighborTable::willingness_of(NodeId id) const {
  auto it = std::lower_bound(
      neighbors_.begin(), neighbors_.end(), id,
      [](const NeighborTuple& t, NodeId n) { return t.id < n; });
  return (it == neighbors_.end() || it->id != id) ? Willingness::kDefault
                                                  : it->willingness;
}

bool NeighborTable::is_symmetric_neighbor(NodeId id) const {
  auto it = std::lower_bound(
      neighbors_.begin(), neighbors_.end(), id,
      [](const NeighborTuple& t, NodeId n) { return t.id < n; });
  return it != neighbors_.end() && it->id == id && it->symmetric;
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
  return true;
}

void NeighborTable::drop_two_hops_via(NodeId via, EdgeDelta* delta) {
  const auto [lo, hi] = via_range(via);
  if (delta != nullptr)
    for (std::size_t i = lo; i < hi; ++i)
      delta->removed.emplace_back(via, two_hops_[i].two_hop);
  two_hops_.erase(two_hops_.begin() + lo, two_hops_.begin() + hi);
}

bool NeighborTable::expire_two_hops(sim::Time now, EdgeDelta* delta) {
  const auto before = two_hops_.size();
  std::erase_if(two_hops_, [now, delta](const TwoHopTuple& t) {
    if (t.valid_until > now) return false;
    if (delta != nullptr) delta->removed.emplace_back(t.via, t.two_hop);
    return true;
  });
  return two_hops_.size() != before;
}

std::vector<NodeId> NeighborTable::strict_two_hops(NodeId self) const {
  std::vector<NodeId> out;
  for (const auto& t : two_hops_) {
    if (t.two_hop == self) continue;
    if (is_symmetric_neighbor(t.two_hop)) continue;
    // Only count 2-hop links advertised by currently-symmetric neighbors.
    if (!is_symmetric_neighbor(t.via)) continue;
    out.push_back(t.two_hop);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

NeighborTable::Reachability NeighborTable::reachability(NodeId self) const {
  Reachability out;
  reachability(self, out);
  return out;
}

void NeighborTable::reachability(NodeId self, Reachability& out) const {
  out.clear();
  const auto strict = strict_two_hops(self);
  // two_hops_ is (via, two_hop)-sorted, so each via's entries form one run
  // and the output comes out via-ascending with sorted inner lists — the
  // same shape the old map<NodeId, set<NodeId>> produced.
  for (std::size_t i = 0; i < two_hops_.size();) {
    const NodeId via = two_hops_[i].via;
    std::size_t j = i;
    while (j < two_hops_.size() && two_hops_[j].via == via) ++j;
    const auto* nb = [&]() -> const NeighborTuple* {
      auto it = std::lower_bound(
          neighbors_.begin(), neighbors_.end(), via,
          [](const NeighborTuple& t, NodeId n) { return t.id < n; });
      return (it != neighbors_.end() && it->id == via) ? &*it : nullptr;
    }();
    if (nb != nullptr && nb->symmetric &&
        nb->willingness != Willingness::kNever) {
      std::vector<NodeId> reached;
      for (std::size_t k = i; k < j; ++k)
        if (std::binary_search(strict.begin(), strict.end(),
                               two_hops_[k].two_hop))
          reached.push_back(two_hops_[k].two_hop);
      if (!reached.empty()) out.emplace_back(via, std::move(reached));
    }
    i = j;
  }
}

std::vector<NodeId> NeighborTable::two_hops_via(NodeId via) const {
  const auto [lo, hi] = via_range(via);
  std::vector<NodeId> out;
  out.reserve(hi - lo);
  for (std::size_t i = lo; i < hi; ++i) out.push_back(two_hops_[i].two_hop);
  return out;
}

}  // namespace manet::olsr
