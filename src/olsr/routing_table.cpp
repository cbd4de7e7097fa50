#include "olsr/routing_table.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace manet::olsr {

std::size_t RoutingTable::index_of(NodeId dest) const {
  const auto it = std::lower_bound(dests_.begin(), dests_.end(), dest);
  if (it == dests_.end() || *it != dest) return dests_.size();
  return static_cast<std::size_t>(it - dests_.begin());
}

bool RoutingTable::routes_unmoved(const KnowledgeGraph& graph) const {
  if (root_ == KnowledgeGraph::kNpos) return false;
  const auto changes = graph.changes_since(stamp_);
  if (!changes) return false;
  // Slots added since the last BFS lie past its arrays: unreached.
  const auto reached = [this](std::uint32_t slot) {
    return slot < slot_dist_.size() && slot_dist_[slot] >= 0;
  };
  for (const auto& c : *changes) {
    if (!reached(c.from)) continue;  // never dequeued, its arcs never read
    if (!c.added) {
      if (reached(c.to) && slot_parent_[c.to] == c.from) return false;
      continue;
    }
    if (!reached(c.to)) return false;
    const auto via = slot_dist_[c.from] + 1;
    const auto dist = slot_dist_[c.to];
    if (via < dist) return false;
    if (via == dist && slot_rank_[c.from] < slot_rank_[slot_parent_[c.to]])
      return false;
  }
  return true;
}

std::pair<std::vector<NodeId>, std::vector<NodeId>> RoutingTable::recompute(
    NodeId self, const KnowledgeGraph& graph) {
  if (current(self, graph)) return {{}, {}};
  const bool unmoved = self == self_ && routes_unmoved(graph);
  self_ = self;
  stamp_ = graph.stamp();
  if (unmoved) {
    obs::hit(obs::Hot::kRouteSkips);
    return {{}, {}};
  }

  obs::hit(obs::Hot::kRouteRuns);
  const std::size_t n = graph.slot_count();
  slot_dist_.assign(n, -1);
  slot_parent_.assign(n, KnowledgeGraph::kNpos);
  slot_rank_.resize(n);
  queue_.clear();
  root_ = graph.slot_of(self);
  if (root_ != KnowledgeGraph::kNpos) {
    slot_dist_[root_] = 0;
    slot_rank_[root_] = 0;
    queue_.push_back(root_);
    // The queue holds every discovered slot, so once it holds them all no
    // arc left to read can discover one.
    for (std::size_t head = 0; head < queue_.size() && queue_.size() < n;
         ++head) {
      const auto u = queue_[head];
      for (const auto& arc : graph.arcs_from(u)) {
        if (slot_dist_[arc.to] >= 0) continue;  // self has dist 0
        slot_dist_[arc.to] = slot_dist_[u] + 1;
        slot_parent_[arc.to] = u;
        slot_rank_[arc.to] = static_cast<std::uint32_t>(queue_.size());
        queue_.push_back(arc.to);
      }
    }
  }

  std::vector<NodeId> old_dests = std::move(dests_);
  dests_.clear();
  dist_.clear();
  parent_.clear();
  for (const auto slot : graph.slots_by_id()) {
    if (slot_dist_[slot] <= 0) continue;  // unreachable, or self
    dests_.push_back(graph.id_at(slot));
    dist_.push_back(slot_dist_[slot]);
    parent_.push_back(graph.id_at(slot_parent_[slot]));
  }

  std::vector<NodeId> added, removed;
  std::set_difference(dests_.begin(), dests_.end(), old_dests.begin(),
                      old_dests.end(), std::back_inserter(added));
  std::set_difference(old_dests.begin(), old_dests.end(), dests_.begin(),
                      dests_.end(), std::back_inserter(removed));
  return {std::move(added), std::move(removed)};
}

std::optional<RoutingTable::Entry> RoutingTable::route_to(NodeId dest) const {
  const auto i = index_of(dest);
  if (i == dests_.size()) return std::nullopt;
  // The next hop is the first relay on the path from self.
  NodeId hop = dest;
  while (parent_[index_of(hop)] != self_) hop = parent_[index_of(hop)];
  return Entry{dest, hop, dist_[i]};
}

std::vector<RoutingTable::Entry> RoutingTable::entries() const {
  std::vector<Entry> out;
  out.reserve(dests_.size());
  for (const auto dest : dests_) out.push_back(*route_to(dest));
  return out;
}

std::optional<std::vector<NodeId>> RoutingTable::path_to(NodeId dest) const {
  if (index_of(dest) == dests_.size()) return std::nullopt;
  std::vector<NodeId> reversed{dest};
  for (NodeId cur = dest; parent_[index_of(cur)] != self_;) {
    cur = parent_[index_of(cur)];
    reversed.push_back(cur);
  }
  std::reverse(reversed.begin(), reversed.end());
  return reversed;
}

std::optional<std::vector<NodeId>> RoutingTable::shortest_path(
    const KnowledgeGraph& graph, NodeId from, NodeId to,
    std::span<const NodeId> avoid) {
  std::vector<NodeId> first_hops;
  if (const auto slot = graph.slot_of(from); slot != KnowledgeGraph::kNpos)
    for (const auto& arc : graph.arcs_from(slot))
      first_hops.push_back(graph.id_at(arc.to));
  PathScratch scratch;
  return shortest_path(graph, from, to, avoid, first_hops, scratch);
}

std::optional<std::vector<NodeId>> RoutingTable::shortest_path(
    const KnowledgeGraph& graph, NodeId from, NodeId to,
    std::span<const NodeId> avoid, std::span<const NodeId> first_hops,
    PathScratch& scratch) {
  if (from == to) return std::vector<NodeId>{};
  // Avoided nodes cannot relay; they may only terminate the path.
  const auto relays = [&](NodeId id) {
    return id == to || !std::binary_search(avoid.begin(), avoid.end(), id);
  };
  constexpr auto kUnseen = KnowledgeGraph::kNpos;
  constexpr auto kFrom = KnowledgeGraph::kNpos - 1;  // parent of first hops
  auto& parent = scratch.parent;
  auto& queue = scratch.queue;
  parent.assign(graph.slot_count(), kUnseen);
  queue.clear();
  if (const auto slot = graph.slot_of(from); slot != KnowledgeGraph::kNpos)
    parent[slot] = kFrom;

  for (const auto hop : first_hops) {
    if (hop == to) return std::vector<NodeId>{to};
    if (!relays(hop)) continue;
    // A hop the graph never saw has no arcs onward: a dead end.
    const auto v = graph.slot_of(hop);
    if (v == KnowledgeGraph::kNpos || parent[v] != kUnseen) continue;
    parent[v] = kFrom;
    queue.push_back(v);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto u = queue[head];
    for (const auto& arc : graph.arcs_from(u)) {
      const auto v = arc.to;
      if (parent[v] != kUnseen || !relays(graph.id_at(v))) continue;
      parent[v] = u;
      if (graph.id_at(v) != to) {
        queue.push_back(v);
        continue;
      }
      std::vector<NodeId> reversed{to};
      for (auto cur = u; cur != kFrom; cur = parent[cur])
        reversed.push_back(graph.id_at(cur));
      std::reverse(reversed.begin(), reversed.end());
      return reversed;
    }
  }
  return std::nullopt;
}

}  // namespace manet::olsr
