#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "olsr/knowledge_graph.hpp"

namespace manet::olsr {

using net::NodeId;

/// Routing table (§10): hop-count shortest paths over the knowledge graph.
///
/// One path: a BFS from `self` over the graph's adjacency (ascending by
/// node id, FIFO queue), run only when the graph's stamp or `self` moved
/// since the last run, and stopped once every slot is discovered. Routes
/// are kept by destination id — sorted destinations with a parallel hop
/// count and BFS-first parent — so they outlive the graph they came from
/// and persist without it.
///
/// The table also keeps the last BFS per graph slot (distance, BFS-first
/// parent, dequeue rank) and skips the BFS when the graph's change log
/// proves every arc change since that run a no-op for it. With `u`
/// reached, an added arc u->v moves a route only if v is unreached,
/// dist(u)+1 < dist(v), or dist(u)+1 = dist(v) and u is dequeued before
/// v's parent; a removed arc only if it is v's parent arc. An arc out of
/// an unreached node never moves one. Anything the log cannot tell runs
/// the BFS.
class RoutingTable {
 public:
  struct Entry {
    NodeId dest;
    NodeId next_hop;
    int distance = 0;
    friend bool operator==(const Entry&, const Entry&) = default;
  };

  /// True when the last run was over this graph state from this `self`,
  /// i.e. recompute() would return without a BFS.
  bool current(NodeId self, const KnowledgeGraph& graph) const {
    return self == self_ && graph.stamp() == stamp_;
  }

  /// Brings the table up to `graph` from `self`: nothing when current(),
  /// no BFS when the graph's change log since the last run (restarted by
  /// the caller after each call) proves the routes unmoved, else one BFS.
  /// Returns (added, removed) destination sets relative to the previous
  /// table — the agent logs these.
  std::pair<std::vector<NodeId>, std::vector<NodeId>> recompute(
      NodeId self, const KnowledgeGraph& graph);

  /// True when `dest` has a route (one binary search).
  bool reaches(NodeId dest) const { return index_of(dest) < dests_.size(); }
  std::optional<Entry> route_to(NodeId dest) const;
  std::vector<Entry> entries() const;
  std::size_t size() const { return dests_.size(); }

  /// Full relay sequence to `dest` (next hop first, dest last); nullopt if
  /// unreachable. Recomputed from the stored parent chain.
  std::optional<std::vector<NodeId>> path_to(NodeId dest) const;

  /// Shortest path over an arbitrary graph with nodes to avoid as relays
  /// (the destination itself may not be avoided): next hop first, `to`
  /// last; empty when from == to, nullopt if unreachable. A FIFO BFS over
  /// arcs ascending by target id, so equal-length paths resolve the same
  /// way on every run. `avoid` must be sorted ascending.
  static std::optional<std::vector<NodeId>> shortest_path(
      const KnowledgeGraph& graph, NodeId from, NodeId to,
      std::span<const NodeId> avoid = {});
  static std::optional<std::vector<NodeId>> shortest_path(
      const KnowledgeGraph& graph, NodeId from, NodeId to,
      std::initializer_list<NodeId> avoid) {
    return shortest_path(graph, from, to,
                         std::span<const NodeId>{avoid.begin(), avoid.size()});
  }

  /// The BFS state of shortest_path, kept by a caller that searches often
  /// so that a search allocates nothing but the path it returns.
  struct PathScratch {
    std::vector<std::uint32_t> parent;  // per slot
    std::vector<std::uint32_t> queue;
  };
  /// The same search with `from`'s out-arcs given as `first_hops`
  /// (ascending ids; `from` and the hops need not be in the graph) in
  /// place of the graph's: an agent searches its live graph this way,
  /// with its symmetric links at now as the first hops, since its own
  /// arcs follow the link set only at the next sync.
  static std::optional<std::vector<NodeId>> shortest_path(
      const KnowledgeGraph& graph, NodeId from, NodeId to,
      std::span<const NodeId> avoid, std::span<const NodeId> first_hops,
      PathScratch& scratch);

  /// Checkpoint image: the routes, which is all the table needs until its
  /// next run. A restored table is never current(), so that run is a BFS
  /// over the rebuilt graph — the same routes an uninterrupted run holds.
  struct Persisted {
    NodeId self{};
    std::vector<NodeId> dests;       // ascending, self excluded
    std::vector<std::int32_t> dist;  // per dest, >= 1
    std::vector<NodeId> parent;      // per dest: self, or a dest one hop closer
  };
  Persisted persist() const { return Persisted{self_, dests_, dist_, parent_}; }
  void restore(Persisted p) {
    self_ = p.self;
    dests_ = std::move(p.dests);
    dist_ = std::move(p.dist);
    parent_ = std::move(p.parent);
    stamp_ = 0;  // stamps start at 1: the next recompute runs a BFS
    root_ = KnowledgeGraph::kNpos;
  }

 private:
  std::size_t index_of(NodeId dest) const;  // into dests_; size() if absent
  /// True when the graph's logged changes since the last BFS (from the
  /// same self) provably move no route.
  bool routes_unmoved(const KnowledgeGraph& graph) const;

  NodeId self_;
  std::uint64_t stamp_ = 0;  // graph stamp of the last run; 0 = none
  std::vector<NodeId> dests_;        // reachable destinations (≠ self)
  std::vector<std::int32_t> dist_;   // per dest
  std::vector<NodeId> parent_;       // per dest
  // The last BFS, per graph slot: distance (-1 unreached), BFS-first
  // parent and dequeue rank (position in the FIFO queue), plus self's slot
  // (kNpos when the graph had none, which never skips).
  std::uint32_t root_ = KnowledgeGraph::kNpos;
  std::vector<std::int32_t> slot_dist_;
  std::vector<std::uint32_t> slot_parent_;
  std::vector<std::uint32_t> slot_rank_;
  std::vector<std::uint32_t> queue_;
};

}  // namespace manet::olsr
