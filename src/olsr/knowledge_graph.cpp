#include "olsr/knowledge_graph.hpp"

#include <algorithm>
#include <atomic>

namespace manet::olsr {

void EdgeDelta::diff(NodeId key, std::span<const NodeId> before,
                     std::span<const NodeId> after) {
  std::size_t i = 0, j = 0;
  while (i < before.size() || j < after.size()) {
    if (j == after.size() || (i < before.size() && before[i] < after[j])) {
      removed.emplace_back(key, before[i++]);
    } else if (i == before.size() || after[j] < before[i]) {
      added.emplace_back(key, after[j++]);
    } else {
      ++i;
      ++j;
    }
  }
}

std::uint64_t fresh_stamp() {
  // The values reach no output, so thread interleaving is harmless.
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::uint32_t KnowledgeGraph::slot_of(NodeId id) const {
  const auto v = id.value();
  if (v < kDenseIds) return v < dense_.size() ? dense_[v] : kNpos;
  const auto it = std::lower_bound(
      by_id_.begin(), by_id_.end(), id,
      [this](std::uint32_t slot, NodeId n) { return ids_[slot] < n; });
  if (it == by_id_.end() || ids_[*it] != id) return kNpos;
  return *it;
}

std::uint32_t KnowledgeGraph::slot_or_insert(NodeId id) {
  if (const auto slot = slot_of(id); slot != kNpos) return slot;
  const auto slot = static_cast<std::uint32_t>(ids_.size());
  by_id_.insert(
      std::lower_bound(
          by_id_.begin(), by_id_.end(), id,
          [this](std::uint32_t s, NodeId n) { return ids_[s] < n; }),
      slot);
  ids_.push_back(id);
  out_.emplace_back();
  if (const auto v = id.value(); v < kDenseIds) {
    if (v >= dense_.size()) dense_.resize(v + 1, kNpos);
    dense_[v] = slot;
  }
  return slot;
}

std::size_t KnowledgeGraph::lower_arc(std::uint32_t from_slot,
                                      NodeId to) const {
  const auto& adj = out_[from_slot];
  return static_cast<std::size_t>(
      std::lower_bound(
          adj.begin(), adj.end(), to,
          [this](const Arc& a, NodeId n) { return ids_[a.to] < n; }) -
      adj.begin());
}

bool KnowledgeGraph::add_arc(NodeId from, NodeId to) {
  const auto from_slot = slot_or_insert(from);
  const auto to_slot = slot_or_insert(to);
  auto& adj = out_[from_slot];
  const auto i = lower_arc(from_slot, to);
  if (i < adj.size() && adj[i].to == to_slot) {
    ++adj[i].refs;
    return false;
  }
  adj.insert(adj.begin() + static_cast<std::ptrdiff_t>(i), Arc{to_slot, 1});
  ++arc_count_;
  changed(from_slot, to_slot, true);
  return true;
}

bool KnowledgeGraph::remove_arc(NodeId from, NodeId to) {
  const auto from_slot = slot_of(from);
  if (from_slot == kNpos) return false;
  auto& adj = out_[from_slot];
  const auto i = lower_arc(from_slot, to);
  if (i == adj.size() || ids_[adj[i].to] != to) return false;
  if (--adj[i].refs > 0) return false;
  const auto to_slot = adj[i].to;
  adj.erase(adj.begin() + static_cast<std::ptrdiff_t>(i));
  --arc_count_;
  changed(from_slot, to_slot, false);
  return true;
}

void KnowledgeGraph::changed(std::uint32_t from, std::uint32_t to,
                             bool added) {
  stamp_ = fresh_stamp();
  if (!log_known_) return;
  if (log_.size() == kLogCapacity) {
    log_known_ = false;
    log_.clear();
    return;
  }
  log_.push_back(ArcChange{from, to, added});
}

void KnowledgeGraph::clear() {
  ids_.clear();
  out_.clear();
  by_id_.clear();
  dense_.clear();
  arc_count_ = 0;
  stamp_ = fresh_stamp();
  log_.clear();
  log_known_ = false;
}

std::uint32_t KnowledgeGraph::refs(NodeId from, NodeId to) const {
  const auto from_slot = slot_of(from);
  if (from_slot == kNpos) return 0;
  const auto& adj = out_[from_slot];
  const auto i = lower_arc(from_slot, to);
  return i < adj.size() && ids_[adj[i].to] == to ? adj[i].refs : 0;
}

std::vector<std::pair<NodeId, NodeId>> KnowledgeGraph::arcs() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(arc_count_);
  for (const auto slot : by_id_)
    for (const auto& a : out_[slot]) out.emplace_back(ids_[slot], ids_[a.to]);
  return out;
}

}  // namespace manet::olsr
