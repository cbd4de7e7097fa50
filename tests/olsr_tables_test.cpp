// Unit tests for the OLSR information bases: link set, neighbor/2-hop
// tables, topology set, duplicate set, MID/HNA sets, routing table.
//
// The flat-slab storage is additionally pinned against reference map/set
// implementations, and routing and MPR selection on a real Agent against
// naive §10 and §8.3.1 references, by a randomized 50-seed equivalence
// suite at the bottom of this file.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "faults/checkpoint.hpp"
#include "mpr_reference.hpp"
#include "net/medium.hpp"
#include "obs/obs.hpp"
#include "olsr/agent.hpp"
#include "olsr/assoc_sets.hpp"
#include "olsr/duplicate_set.hpp"
#include "olsr/link_set.hpp"
#include "olsr/neighbor_table.hpp"
#include "olsr/routing_table.hpp"
#include "olsr/topology_set.hpp"
#include "olsr/wire.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace manet::olsr {
namespace {

constexpr auto kVtime = sim::Duration::from_seconds(6.0);

sim::Time t(double s) { return sim::Time::from_seconds(s); }

using Arcs = std::vector<std::pair<NodeId, NodeId>>;

std::vector<NodeId> reach_of(const NeighborTable::Reachability& reach,
                             NodeId via) {
  for (const auto& [v, ths] : reach)
    if (v == via) return ths;
  return {};
}

TEST(LinkSet, HeardOnlyIsAsymmetric) {
  LinkSet ls;
  const auto change = ls.on_hello(t(0), NodeId{1}, false, false, kVtime);
  EXPECT_EQ(change, LinkSet::Change::kBecameAsym);
  EXPECT_FALSE(ls.is_symmetric(t(0), NodeId{1}));
  EXPECT_EQ(ls.asymmetric_neighbors(t(1)),
            (std::vector<NodeId>{NodeId{1}}));
}

TEST(LinkSet, ListedUpgradesToSymmetric) {
  LinkSet ls;
  ls.on_hello(t(0), NodeId{1}, false, false, kVtime);
  const auto change = ls.on_hello(t(2), NodeId{1}, true, false, kVtime);
  EXPECT_EQ(change, LinkSet::Change::kBecameSym);
  EXPECT_TRUE(ls.is_symmetric(t(2), NodeId{1}));
  EXPECT_EQ(ls.symmetric_neighbors(t(3)), (std::vector<NodeId>{NodeId{1}}));
}

TEST(LinkSet, LostDeclarationDowngrades) {
  LinkSet ls;
  ls.on_hello(t(0), NodeId{1}, true, false, kVtime);
  ASSERT_TRUE(ls.is_symmetric(t(1), NodeId{1}));
  const auto change = ls.on_hello(t(2), NodeId{1}, false, true, kVtime);
  EXPECT_EQ(change, LinkSet::Change::kLost);
  EXPECT_FALSE(ls.is_symmetric(t(2), NodeId{1}));
}

TEST(LinkSet, SymmetryTimesOut) {
  LinkSet ls;
  ls.on_hello(t(0), NodeId{1}, true, false, kVtime);
  EXPECT_TRUE(ls.is_symmetric(t(5.9), NodeId{1}));
  EXPECT_FALSE(ls.is_symmetric(t(6.1), NodeId{1}));
  const auto lost = ls.expire(t(6.1));
  EXPECT_EQ(lost, (std::vector<NodeId>{NodeId{1}}));
}

TEST(LinkSet, ExpireRemovesFullyStaleTuples) {
  LinkSet ls;
  ls.on_hello(t(0), NodeId{1}, false, false, kVtime);
  EXPECT_EQ(ls.size(), 1u);
  ls.expire(t(7));
  EXPECT_EQ(ls.size(), 0u);
}

TEST(LinkSet, RefreshKeepsLinkAlive) {
  LinkSet ls;
  for (double s = 0; s < 20; s += 2) ls.on_hello(t(s), NodeId{1}, true, false, kVtime);
  EXPECT_TRUE(ls.is_symmetric(t(20), NodeId{1}));
}

TEST(LinkSet, ReAddAfterExpireStartsFresh) {
  // A neighbor that expired out of the slab and comes back must be treated
  // as brand new: the compaction sweep must not leave stale state behind.
  LinkSet ls;
  ls.on_hello(t(0), NodeId{1}, true, false, kVtime);
  ls.expire(t(7));
  ASSERT_EQ(ls.size(), 0u);
  const auto change = ls.on_hello(t(10), NodeId{1}, false, false, kVtime);
  EXPECT_EQ(change, LinkSet::Change::kBecameAsym);
  EXPECT_FALSE(ls.is_symmetric(t(10), NodeId{1}));
  EXPECT_EQ(ls.size(), 1u);
  // Upgrading again works exactly like the first time.
  EXPECT_EQ(ls.on_hello(t(11), NodeId{1}, true, false, kVtime),
            LinkSet::Change::kBecameSym);
}

TEST(LinkSet, VtimeBoundaryIsExclusive) {
  // symmetric() is sym_until > now and expiry is valid_until <= now: at the
  // exact boundary instant the link is already down/gone. The slab sweep
  // must agree with the point lookups.
  LinkSet ls;
  ls.on_hello(t(0), NodeId{1}, true, false, kVtime);
  EXPECT_TRUE(ls.is_symmetric(t(5.999999), NodeId{1}));
  EXPECT_FALSE(ls.is_symmetric(t(6.0), NodeId{1}));
  EXPECT_TRUE(ls.symmetric_neighbors(t(6.0)).empty());
  const auto lost = ls.expire(t(6.0));
  EXPECT_EQ(lost, (std::vector<NodeId>{NodeId{1}}));
  EXPECT_EQ(ls.size(), 0u);
}

TEST(LinkSet, NextTransitionTracksEarliestBoundary) {
  LinkSet ls;
  EXPECT_EQ(ls.next_transition(t(0)), LinkSet::kNoTransition);
  ls.on_hello(t(0), NodeId{1}, true, false, kVtime);
  ls.on_hello(t(1), NodeId{2}, true, false, kVtime);
  // Earliest boundary is n1's sym_until at t=6.
  EXPECT_EQ(ls.next_transition(t(2)), t(6));
  // Past it, the hint re-scans to n2's boundary at t=7.
  EXPECT_EQ(ls.next_transition(t(6)), t(7));
  // The hint is conservative: refreshing n1 must never push it late.
  ls.on_hello(t(6.5), NodeId{1}, true, false, kVtime);
  EXPECT_LE(ls.next_transition(t(6.5)), t(7));
}

TEST(NeighborTable, UpsertAndRemove) {
  NeighborTable nt;
  EXPECT_TRUE(nt.upsert_neighbor(NodeId{1}, Willingness::kHigh, true));
  // A verbatim repeat changes nothing.
  EXPECT_FALSE(nt.upsert_neighbor(NodeId{1}, Willingness::kHigh, true));
  ASSERT_TRUE(nt.neighbor(NodeId{1}).has_value());
  EXPECT_EQ(nt.neighbor(NodeId{1})->willingness, Willingness::kHigh);
  EXPECT_EQ(nt.symmetric_neighbors(), (std::vector<NodeId>{NodeId{1}}));
  nt.remove_neighbor(NodeId{1});
  EXPECT_FALSE(nt.neighbor(NodeId{1}).has_value());
}

TEST(NeighborTable, StrictTwoHopsExcludesSelfAndNeighbors) {
  NeighborTable nt{NodeId{0}};
  nt.upsert_neighbor(NodeId{1}, Willingness::kDefault, true);
  nt.upsert_neighbor(NodeId{2}, Willingness::kDefault, true);
  // n1 advertises: me (n0), n2 (also my neighbor), n3 (true 2-hop).
  nt.set_two_hops_via(NodeId{1}, {NodeId{0}, NodeId{2}, NodeId{3}}, t(100));
  EXPECT_EQ(nt.reachability(NodeId{0}),
            (NeighborTable::Reachability{{NodeId{1}, {NodeId{3}}}}));
}

TEST(NeighborTable, TwoHopsViaNonSymmetricNeighborIgnored) {
  NeighborTable nt{NodeId{0}};
  nt.upsert_neighbor(NodeId{1}, Willingness::kDefault, false);
  nt.set_two_hops_via(NodeId{1}, {NodeId{3}}, t(100));
  EXPECT_TRUE(nt.reachability(NodeId{0}).empty());
}

TEST(NeighborTable, ReachabilityExcludesWillNever) {
  NeighborTable nt{NodeId{0}};
  nt.upsert_neighbor(NodeId{1}, Willingness::kNever, true);
  nt.upsert_neighbor(NodeId{2}, Willingness::kDefault, true);
  nt.set_two_hops_via(NodeId{1}, {NodeId{5}}, t(100));
  nt.set_two_hops_via(NodeId{2}, {NodeId{5}}, t(100));
  const auto reach = nt.reachability(NodeId{0});
  EXPECT_TRUE(reach_of(reach, NodeId{1}).empty());
  EXPECT_EQ(reach_of(reach, NodeId{2}), (std::vector<NodeId>{NodeId{5}}));
}

TEST(NeighborTable, RestoreRebuildsReachRowsUnderFreshStamp) {
  NeighborTable nt{NodeId{0}};
  nt.upsert_neighbor(NodeId{1}, Willingness::kDefault, true);
  nt.set_two_hops_via(NodeId{1}, {NodeId{3}}, t(100));
  const NeighborTable::Reachability rows{{NodeId{1}, {NodeId{3}}}};
  ASSERT_EQ(nt.reachability(NodeId{0}), rows);
  const auto stamp = nt.rows_stamp();
  nt.restore({}, {});
  EXPECT_TRUE(nt.reachability(NodeId{0}).empty());
  EXPECT_NE(nt.rows_stamp(), stamp);
  nt.restore({NeighborTuple{NodeId{1}, Willingness::kDefault, true}},
             {TwoHopTuple{NodeId{1}, NodeId{3}, t(100)}});
  EXPECT_EQ(nt.reachability(NodeId{0}), rows);
}

TEST(NeighborTable, TwoHopExpiry) {
  NeighborTable nt;
  nt.upsert_neighbor(NodeId{1}, Willingness::kDefault, true);
  nt.set_two_hops_via(NodeId{1}, {NodeId{3}}, t(5));
  EXPECT_EQ(nt.two_hops_via(NodeId{1}).size(), 1u);
  EdgeDelta delta;
  EXPECT_TRUE(nt.expire_two_hops(t(6), &delta));
  EXPECT_EQ(delta.removed, (Arcs{{NodeId{1}, NodeId{3}}}));
  EXPECT_TRUE(nt.two_hops_via(NodeId{1}).empty());
  // Nothing left to remove: the sweep reports no change.
  EXPECT_FALSE(nt.expire_two_hops(t(7)));
}

TEST(NeighborTable, SetTwoHopsReplacesOldAdvertisement) {
  NeighborTable nt;
  nt.upsert_neighbor(NodeId{1}, Willingness::kDefault, true);
  EXPECT_TRUE(nt.set_two_hops_via(NodeId{1}, {NodeId{3}, NodeId{4}}, t(100)));
  EdgeDelta delta;
  EXPECT_TRUE(nt.set_two_hops_via(NodeId{1}, {NodeId{5}, NodeId{4}}, t(100),
                                  &delta));
  EXPECT_EQ(nt.two_hops_via(NodeId{1}),
            (std::vector<NodeId>{NodeId{4}, NodeId{5}}));
  EXPECT_EQ(delta.removed, (Arcs{{NodeId{1}, NodeId{3}}}));
  EXPECT_EQ(delta.added, (Arcs{{NodeId{1}, NodeId{5}}}));
  // Same membership, fresher expiry: a refresh, not a change.
  delta.clear();
  EXPECT_FALSE(nt.set_two_hops_via(NodeId{1}, {NodeId{4}, NodeId{5}}, t(200),
                                   &delta));
  EXPECT_TRUE(delta.removed.empty() && delta.added.empty());
  EXPECT_FALSE(nt.expire_two_hops(t(150)));  // refreshed past the old expiry
  // Losing the neighbor drops what it advertised.
  nt.remove_neighbor(NodeId{1}, &delta);
  EXPECT_EQ(delta.removed,
            (Arcs{{NodeId{1}, NodeId{4}}, {NodeId{1}, NodeId{5}}}));
  EXPECT_TRUE(nt.two_hops_via(NodeId{1}).empty());
}

TEST(TopologySet, RecordsAndExpires) {
  TopologySet ts;
  EXPECT_TRUE(ts.on_tc(t(0), NodeId{1}, 10, {NodeId{2}, NodeId{3}}, kVtime));
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.advertised_by(NodeId{1}).size(), 2u);
  EXPECT_TRUE(ts.expire(t(7)));
  EXPECT_EQ(ts.size(), 0u);
  EXPECT_FALSE(ts.expire(t(8)));  // nothing left: no change reported
}

TEST(TopologySet, StaleAnsnRejected) {
  TopologySet ts;
  EXPECT_TRUE(ts.on_tc(t(0), NodeId{1}, 10, {NodeId{2}}, kVtime));
  EXPECT_FALSE(ts.on_tc(t(1), NodeId{1}, 9, {NodeId{9}}, kVtime));
  EXPECT_EQ(ts.advertised_by(NodeId{1}), (std::vector<NodeId>{NodeId{2}}));
}

TEST(TopologySet, NewerAnsnReplacesOlderTuples) {
  TopologySet ts;
  ts.on_tc(t(0), NodeId{1}, 10, {NodeId{2}, NodeId{3}}, kVtime);
  EdgeDelta delta;
  EXPECT_TRUE(ts.on_tc(t(1), NodeId{1}, 11, {NodeId{4}}, kVtime, &delta));
  EXPECT_EQ(delta.removed,
            (Arcs{{NodeId{1}, NodeId{2}}, {NodeId{1}, NodeId{3}}}));
  EXPECT_EQ(delta.added, (Arcs{{NodeId{1}, NodeId{4}}}));
  EXPECT_EQ(ts.advertised_by(NodeId{1}), (std::vector<NodeId>{NodeId{4}}));
  // Expiry reports what it removed.
  delta.clear();
  EXPECT_TRUE(ts.expire(t(8), &delta));
  EXPECT_EQ(delta.removed, (Arcs{{NodeId{1}, NodeId{4}}}));
  EXPECT_TRUE(delta.added.empty());
}

TEST(TopologySet, SteadyStateRefreshIsNotAChange) {
  // A periodic TC with a new ANSN but the same advertised set refreshes
  // timers and leaves the knowledge graph (and so routing) alone.
  TopologySet ts;
  ts.on_tc(t(0), NodeId{1}, 10, {NodeId{2}, NodeId{3}}, kVtime);
  EdgeDelta delta;
  EXPECT_TRUE(ts.on_tc(t(1), NodeId{1}, 11, {NodeId{2}, NodeId{3}}, kVtime,
                       &delta));
  EXPECT_TRUE(delta.removed.empty());
  EXPECT_TRUE(delta.added.empty());
  // The timers did refresh: tuples survive past the original expiry.
  EXPECT_FALSE(ts.expire(t(6.5)));
  EXPECT_EQ(ts.size(), 2u);
}

TEST(TopologySet, AnsnWraparound) {
  TopologySet ts;
  ts.on_tc(t(0), NodeId{1}, 65530, {NodeId{2}}, kVtime);
  // 5 is "newer" than 65530 modulo 2^16 (RFC 3626 §19).
  EXPECT_TRUE(ts.on_tc(t(1), NodeId{1}, 5, {NodeId{3}}, kVtime));
  EXPECT_EQ(ts.advertised_by(NodeId{1}), (std::vector<NodeId>{NodeId{3}}));
  // ...and 65530 is stale relative to 5 post-wrap.
  EXPECT_FALSE(ts.on_tc(t(2), NodeId{1}, 65530, {NodeId{9}}, kVtime));
  // Exactly half the sequence space away is treated as newer in one
  // direction only (the <= 32768 rule keeps the relation antisymmetric).
  TopologySet half;
  half.on_tc(t(0), NodeId{1}, 0, {NodeId{2}}, kVtime);
  EXPECT_TRUE(half.on_tc(t(1), NodeId{1}, 32768, {NodeId{3}}, kVtime));
  EXPECT_FALSE(half.on_tc(t(2), NodeId{1}, 0, {NodeId{4}}, kVtime));
}

TEST(DuplicateSet, SeenAndForwarded) {
  DuplicateSet ds;
  EXPECT_FALSE(ds.seen(NodeId{1}, 5));
  ds.record(t(0), NodeId{1}, 5, false, kVtime);
  EXPECT_TRUE(ds.seen(NodeId{1}, 5));
  EXPECT_FALSE(ds.forwarded(NodeId{1}, 5));
  ds.record(t(1), NodeId{1}, 5, true, kVtime);
  EXPECT_TRUE(ds.forwarded(NodeId{1}, 5));
}

TEST(DuplicateSet, ForwardedFlagSticky) {
  DuplicateSet ds;
  ds.record(t(0), NodeId{1}, 5, true, kVtime);
  ds.record(t(1), NodeId{1}, 5, false, kVtime);
  EXPECT_TRUE(ds.forwarded(NodeId{1}, 5));
}

TEST(DuplicateSet, Expiry) {
  DuplicateSet ds;
  ds.record(t(0), NodeId{1}, 5, false, sim::Duration::from_seconds(2.0));
  ds.expire(t(3));
  EXPECT_FALSE(ds.seen(NodeId{1}, 5));
}

TEST(DuplicateSet, RefreshOutlivesStaleRingSlot) {
  // A re-recorded entry leaves its first ring slot stale; popping that slot
  // must not evict the refreshed entry (the ring validates valid_until).
  DuplicateSet ds;
  ds.record(t(0), NodeId{1}, 5, false, sim::Duration::from_seconds(2.0));
  ds.record(t(1), NodeId{1}, 5, false, sim::Duration::from_seconds(2.0));
  ds.expire(t(2.5));  // past the first slot's expiry, before the second
  EXPECT_TRUE(ds.seen(NodeId{1}, 5));
  ds.expire(t(3.5));
  EXPECT_FALSE(ds.seen(NodeId{1}, 5));
}

TEST(MidSet, ResolvesInterfaceToMain) {
  MidSet ms;
  ms.on_mid(t(0), NodeId{1}, {NodeId{100}, NodeId{101}}, kVtime);
  EXPECT_EQ(ms.main_address_of(NodeId{100}), NodeId{1});
  EXPECT_EQ(ms.main_address_of(NodeId{101}), NodeId{1});
  // Unknown interfaces resolve to themselves (§5.4).
  EXPECT_EQ(ms.main_address_of(NodeId{55}), NodeId{55});
  EXPECT_EQ(ms.interfaces_of(NodeId{1}).size(), 2u);
  ms.expire(t(7));
  EXPECT_EQ(ms.main_address_of(NodeId{100}), NodeId{100});
}

TEST(HnaSet, GatewaysForNetwork) {
  HnaSet hs;
  hs.on_hna(t(0), NodeId{1}, {{0x0A000000u, 8}}, kVtime);
  hs.on_hna(t(0), NodeId{2}, {{0x0A000000u, 8}}, kVtime);
  const auto gws = hs.gateways_for(0x0A000000u, 8);
  EXPECT_EQ(gws.size(), 2u);
  EXPECT_TRUE(hs.gateways_for(0x0B000000u, 8).empty());
  hs.expire(t(7));
  EXPECT_TRUE(hs.gateways_for(0x0A000000u, 8).empty());
}

KnowledgeGraph line_graph(int n) {
  KnowledgeGraph g;
  for (int i = 0; i + 1 < n; ++i)
    g.add_edge(NodeId{static_cast<std::uint32_t>(i)},
               NodeId{static_cast<std::uint32_t>(i + 1)});
  return g;
}

TEST(KnowledgeGraph, ArcLeavesWithItsLastReference) {
  KnowledgeGraph g;
  EXPECT_EQ(g.add_edge(NodeId{3}, NodeId{1}), 2);  // both arcs new
  EXPECT_EQ(g.add_edge(NodeId{1}, NodeId{3}), 0);  // second source, same edge
  EXPECT_TRUE(g.add_arc(NodeId{1}, NodeId{2}));
  EXPECT_EQ(g.arc_count(), 3u);  // 1->3, 3->1, 1->2
  EXPECT_EQ(g.refs(NodeId{1}, NodeId{3}), 2u);
  EXPECT_EQ(g.refs(NodeId{1}, NodeId{2}), 1u);
  EXPECT_EQ(g.refs(NodeId{2}, NodeId{1}), 0u);

  // Dropping one of two sources leaves the arc set, and the stamp, alone.
  const auto stamp = g.stamp();
  EXPECT_EQ(g.remove_edge(NodeId{3}, NodeId{1}), 0);
  EXPECT_EQ(g.stamp(), stamp);
  EXPECT_EQ(g.arc_count(), 3u);
  EXPECT_EQ(g.remove_edge(NodeId{1}, NodeId{3}), 2);
  EXPECT_NE(g.stamp(), stamp);
  EXPECT_EQ(g.arcs(), (Arcs{{NodeId{1}, NodeId{2}}}));

  // Absent arcs and unknown nodes: no-ops, never negative counts.
  EXPECT_FALSE(g.remove_arc(NodeId{1}, NodeId{3}));
  EXPECT_FALSE(g.remove_arc(NodeId{9}, NodeId{1}));
  EXPECT_TRUE(g.add_arc(NodeId{1}, NodeId{3}));
  EXPECT_EQ(g.refs(NodeId{1}, NodeId{3}), 1u);
  EXPECT_EQ(g.arc_count(), 2u);
}

TEST(KnowledgeGraph, AdjacencyAscendsByTargetId) {
  KnowledgeGraph g;
  // Slots follow first sight; adjacency and slots_by_id follow node ids.
  g.add_arc(NodeId{5}, NodeId{9});
  g.add_arc(NodeId{5}, NodeId{2});
  g.add_arc(NodeId{5}, NodeId{7});
  std::vector<NodeId> targets;
  for (const auto& a : g.arcs_from(g.slot_of(NodeId{5})))
    targets.push_back(g.id_at(a.to));
  EXPECT_EQ(targets, (std::vector<NodeId>{NodeId{2}, NodeId{7}, NodeId{9}}));
  std::vector<NodeId> by_id;
  for (const auto slot : g.slots_by_id()) by_id.push_back(g.id_at(slot));
  EXPECT_EQ(by_id,
            (std::vector<NodeId>{NodeId{2}, NodeId{5}, NodeId{7}, NodeId{9}}));
  EXPECT_EQ(g.slot_of(NodeId{4}), KnowledgeGraph::kNpos);
  // A slot whose arcs all left stays, with an empty adjacency.
  g.remove_arc(NodeId{5}, NodeId{2});
  g.remove_arc(NodeId{5}, NodeId{7});
  g.remove_arc(NodeId{5}, NodeId{9});
  EXPECT_EQ(g.arc_count(), 0u);
  ASSERT_NE(g.slot_of(NodeId{5}), KnowledgeGraph::kNpos);
  EXPECT_TRUE(g.arcs_from(g.slot_of(NodeId{5})).empty());

  // Ids on both sides of the 4096 boundary of the id index, and one near
  // 2^32, follow the same rules.
  const NodeId lo{4095};
  const NodeId mid{4096};
  const NodeId hi{0xFFFFFFF0u};
  const auto ids_of = [&g](auto slots) {
    std::vector<NodeId> out;
    for (const auto slot : slots) out.push_back(g.id_at(slot));
    return out;
  };
  const auto targets_of = [&g](NodeId from) {
    std::vector<NodeId> out;
    for (const auto& a : g.arcs_from(g.slot_of(from)))
      out.push_back(g.id_at(a.to));
    return out;
  };
  g.add_arc(NodeId{5}, hi);
  g.add_arc(NodeId{5}, mid);
  g.add_arc(NodeId{5}, lo);
  g.add_arc(hi, lo);
  g.add_arc(hi, lo);
  g.add_arc(hi, mid);
  for (const NodeId id : {lo, mid, hi}) {
    ASSERT_NE(g.slot_of(id), KnowledgeGraph::kNpos) << id.to_string();
    EXPECT_EQ(g.id_at(g.slot_of(id)), id);
  }
  EXPECT_EQ(g.slot_of(NodeId{4097}), KnowledgeGraph::kNpos);
  EXPECT_EQ(g.slot_of(NodeId{0xFFFFFFEFu}), KnowledgeGraph::kNpos);
  EXPECT_EQ(targets_of(NodeId{5}), (std::vector<NodeId>{lo, mid, hi}));
  EXPECT_EQ(targets_of(hi), (std::vector<NodeId>{lo, mid}));
  EXPECT_EQ(ids_of(g.slots_by_id()),
            (std::vector<NodeId>{NodeId{2}, NodeId{5}, NodeId{7}, NodeId{9},
                                 lo, mid, hi}));
  EXPECT_EQ(g.refs(hi, lo), 2u);
  EXPECT_FALSE(g.remove_arc(hi, lo));
  EXPECT_EQ(g.refs(hi, lo), 1u);
  EXPECT_TRUE(g.remove_arc(NodeId{5}, mid));
  EXPECT_EQ(g.refs(NodeId{5}, mid), 0u);
  EXPECT_EQ(g.refs(hi, mid), 1u);
  EXPECT_EQ(targets_of(NodeId{5}), (std::vector<NodeId>{lo, hi}));

  // clear() forgets every id; re-added ones take fresh slots in
  // first-seen order.
  g.clear();
  for (const NodeId id : {NodeId{5}, lo, mid, hi})
    EXPECT_EQ(g.slot_of(id), KnowledgeGraph::kNpos) << id.to_string();
  g.add_arc(hi, mid);
  g.add_arc(lo, hi);
  EXPECT_EQ(g.slot_count(), 3u);
  EXPECT_EQ(g.slot_of(hi), 0u);
  EXPECT_EQ(g.slot_of(mid), 1u);
  EXPECT_EQ(g.slot_of(lo), 2u);
  EXPECT_EQ(g.slot_of(NodeId{5}), KnowledgeGraph::kNpos);
  EXPECT_EQ(ids_of(g.slots_by_id()), (std::vector<NodeId>{lo, mid, hi}));
  EXPECT_EQ(g.refs(hi, mid), 1u);
  EXPECT_EQ(g.refs(hi, lo), 0u);
  EXPECT_EQ(g.arcs(), (std::vector<std::pair<NodeId, NodeId>>{{lo, hi},
                                                               {hi, mid}}));
}

TEST(KnowledgeGraph, CopySharesStampUntilPatched) {
  KnowledgeGraph g;
  g.add_edge(NodeId{1}, NodeId{2});
  auto copy = g;
  EXPECT_EQ(copy.stamp(), g.stamp());
  copy.add_edge(NodeId{2}, NodeId{3});
  EXPECT_NE(copy.stamp(), g.stamp());
  // Equal arc sets built apart never share a stamp (conservative).
  KnowledgeGraph twin;
  twin.add_edge(NodeId{1}, NodeId{2});
  EXPECT_EQ(twin.arcs(), g.arcs());
  EXPECT_NE(twin.stamp(), g.stamp());
}

TEST(RoutingTable, LineGraphDistances) {
  RoutingTable rt;
  rt.recompute(NodeId{0}, line_graph(5));
  EXPECT_EQ(rt.size(), 4u);
  for (std::uint32_t d = 1; d <= 4; ++d) {
    const auto e = rt.route_to(NodeId{d});
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->distance, static_cast<int>(d));
    EXPECT_EQ(e->next_hop, NodeId{1});  // everything goes through n1
  }
}

TEST(RoutingTable, PathReconstruction) {
  RoutingTable rt;
  rt.recompute(NodeId{0}, line_graph(4));
  const auto path = rt.path_to(NodeId{3});
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<NodeId>{NodeId{1}, NodeId{2}, NodeId{3}}));
}

TEST(RoutingTable, UnreachableIsAbsent) {
  KnowledgeGraph g = line_graph(3);
  g.add_edge(NodeId{10}, NodeId{11});  // disconnected island
  RoutingTable rt;
  rt.recompute(NodeId{0}, g);
  EXPECT_FALSE(rt.route_to(NodeId{10}).has_value());
  EXPECT_FALSE(rt.path_to(NodeId{10}).has_value());
}

TEST(RoutingTable, RecomputeReportsDiff) {
  RoutingTable rt;
  auto [added1, removed1] = rt.recompute(NodeId{0}, line_graph(3));
  EXPECT_EQ(added1.size(), 2u);
  EXPECT_TRUE(removed1.empty());
  auto [added2, removed2] = rt.recompute(NodeId{0}, line_graph(2));
  EXPECT_TRUE(added2.empty());
  EXPECT_EQ(removed2.size(), 1u);
}

TEST(RoutingTable, IdenticalGraphIsNoOpDiff) {
  RoutingTable rt;
  rt.recompute(NodeId{0}, line_graph(4));
  auto [added, removed] = rt.recompute(NodeId{0}, line_graph(4));
  EXPECT_TRUE(added.empty());
  EXPECT_TRUE(removed.empty());
  EXPECT_EQ(rt.size(), 3u);
}

TEST(RoutingTable, RerunAfterPatchMatchesFreshTable) {
  // Patching the graph moves its stamp, so the next recompute re-runs the
  // BFS; additions and removals alike must match a fresh table entry for
  // entry.
  auto g = line_graph(4);
  RoutingTable rt;
  rt.recompute(NodeId{0}, g);
  EXPECT_TRUE(rt.current(NodeId{0}, g));
  g.add_edge(NodeId{3}, NodeId{4});
  g.add_edge(NodeId{1}, NodeId{5});  // and a fresh branch
  EXPECT_FALSE(rt.current(NodeId{0}, g));
  auto [added, removed] = rt.recompute(NodeId{0}, g);
  EXPECT_EQ(added, (std::vector<NodeId>{NodeId{4}, NodeId{5}}));
  EXPECT_TRUE(removed.empty());
  RoutingTable fresh;
  fresh.recompute(NodeId{0}, g);
  EXPECT_EQ(rt.entries(), fresh.entries());

  g.remove_edge(NodeId{1}, NodeId{2});  // cuts n2..n4 off
  auto [added2, removed2] = rt.recompute(NodeId{0}, g);
  EXPECT_TRUE(added2.empty());
  EXPECT_EQ(removed2, (std::vector<NodeId>{NodeId{2}, NodeId{3}, NodeId{4}}));
  RoutingTable fresh2;
  fresh2.recompute(NodeId{0}, g);
  EXPECT_EQ(rt.entries(), fresh2.entries());
}

TEST(RoutingTable, RerunOnlyWhenStampOrSelfMoves) {
  auto g = line_graph(3);
  RoutingTable rt;
  rt.recompute(NodeId{0}, g);
  EXPECT_TRUE(rt.current(NodeId{0}, g));
  EXPECT_TRUE(rt.current(NodeId{0}, KnowledgeGraph{g}));  // a copy
  EXPECT_FALSE(rt.current(NodeId{1}, g));
  // A second source for an existing edge leaves the arc set alone.
  g.add_edge(NodeId{0}, NodeId{1});
  EXPECT_TRUE(rt.current(NodeId{0}, g));
  // A new root re-runs from there: n0 becomes a destination, n2 the root.
  const auto [added, removed] = rt.recompute(NodeId{2}, g);
  EXPECT_EQ(added, (std::vector<NodeId>{NodeId{0}}));
  EXPECT_EQ(removed, (std::vector<NodeId>{NodeId{2}}));
  EXPECT_EQ(rt.route_to(NodeId{0})->distance, 2);
}

TEST(RoutingTable, NextHopIsTheBfsFirstParent) {
  // Diamond 0-1-3, 0-2-3 (+ 0-4-3): BFS dequeues n1 first, so n1 is n3's
  // parent and next hop.
  KnowledgeGraph g;
  g.add_edge(NodeId{0}, NodeId{4});
  g.add_edge(NodeId{0}, NodeId{2});
  g.add_edge(NodeId{0}, NodeId{1});
  g.add_edge(NodeId{4}, NodeId{3});
  g.add_edge(NodeId{2}, NodeId{3});
  g.add_edge(NodeId{1}, NodeId{3});
  RoutingTable rt;
  rt.recompute(NodeId{0}, g);
  const auto e = rt.route_to(NodeId{3});
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->next_hop, NodeId{1});
  EXPECT_EQ(e->distance, 2);
  // Restored routes answer queries, but the next recompute re-runs.
  RoutingTable restored;
  restored.restore(rt.persist());
  EXPECT_EQ(restored.entries(), rt.entries());
  EXPECT_EQ(*restored.path_to(NodeId{3}),
            (std::vector<NodeId>{NodeId{1}, NodeId{3}}));
  EXPECT_FALSE(restored.current(NodeId{0}, g));
}

TEST(RoutingTable, ShortestPathAvoidsNodes) {
  // Diamond: 0-1-3 and 0-2-3.
  KnowledgeGraph g;
  g.add_edge(NodeId{0}, NodeId{1});
  g.add_edge(NodeId{0}, NodeId{2});
  g.add_edge(NodeId{1}, NodeId{3});
  g.add_edge(NodeId{2}, NodeId{3});

  const auto direct = RoutingTable::shortest_path(g, NodeId{0}, NodeId{3});
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(direct->size(), 2u);

  const auto avoiding =
      RoutingTable::shortest_path(g, NodeId{0}, NodeId{3}, {NodeId{1}});
  ASSERT_TRUE(avoiding.has_value());
  EXPECT_EQ(*avoiding, (std::vector<NodeId>{NodeId{2}, NodeId{3}}));

  const auto blocked = RoutingTable::shortest_path(g, NodeId{0}, NodeId{3},
                                                   {NodeId{1}, NodeId{2}});
  EXPECT_FALSE(blocked.has_value());
}

TEST(RoutingTable, AvoidedDestinationStillReachable) {
  // Avoiding X as a relay must not forbid X as the final destination.
  KnowledgeGraph g;
  g.add_edge(NodeId{0}, NodeId{1});
  const auto p =
      RoutingTable::shortest_path(g, NodeId{0}, NodeId{1}, {NodeId{1}});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, (std::vector<NodeId>{NodeId{1}}));
}

TEST(RoutingTable, SelfPathIsEmpty) {
  const auto p =
      RoutingTable::shortest_path(line_graph(3), NodeId{0}, NodeId{0});
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->empty());
}

// ---------------------------------------------------------------------------
// Flat-vs-map equivalence suite: the flat slabs replaced std::map/std::set
// storage; these sweeps replay randomized op streams against straightforward
// reference implementations with the old containers and demand identical
// observable state at every step.

class SlabEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SlabEquivalence, LinkSetMatchesMapReference) {
  // Reference: same timer algebra over a std::map (the pre-slab storage).
  struct RefSlot {
    LinkTuple tuple;
    bool was_symmetric = false;
  };
  std::map<NodeId, RefSlot> ref;
  auto ref_on_hello = [&](sim::Time now, NodeId nb, bool lists, bool lost,
                          sim::Duration vtime) {
    auto& s = ref[nb];
    if (!s.tuple.neighbor.valid()) s.tuple.neighbor = nb;
    const bool was_sym =
        s.tuple.valid_until > sim::Time{} && s.tuple.symmetric(now);
    s.tuple.asym_until = now + vtime;
    if (lost) {
      s.tuple.sym_until = now;
    } else if (lists) {
      s.tuple.sym_until = now + vtime;
    }
    s.tuple.valid_until = std::max(s.tuple.asym_until, s.tuple.sym_until);
    const bool is_sym = s.tuple.symmetric(now);
    s.was_symmetric = is_sym;
    if (is_sym && !was_sym) return LinkSet::Change::kBecameSym;
    if (!is_sym && was_sym) return LinkSet::Change::kLost;
    if (!is_sym) return LinkSet::Change::kBecameAsym;
    return LinkSet::Change::kNone;
  };
  auto ref_expire = [&](sim::Time now) {
    std::vector<NodeId> downgraded;
    for (auto it = ref.begin(); it != ref.end();) {
      if (it->second.tuple.valid_until <= now) {
        if (it->second.was_symmetric) downgraded.push_back(it->first);
        it = ref.erase(it);
        continue;
      }
      if (it->second.was_symmetric && !it->second.tuple.symmetric(now)) {
        downgraded.push_back(it->first);
        it->second.was_symmetric = false;
      }
      ++it;
    }
    return downgraded;
  };

  sim::Rng rng{GetParam()};
  LinkSet ls;
  sim::Time now{};
  for (int step = 0; step < 300; ++step) {
    now = now + sim::Duration::from_ms(rng.uniform_int(0, 1500));
    const NodeId nb{static_cast<std::uint32_t>(rng.uniform_int(1, 8))};
    const auto op = rng.uniform_int(0, 9);
    if (op < 7) {
      const bool lists = rng.uniform_int(0, 2) > 0;
      const bool lost = !lists && rng.uniform_int(0, 3) == 0;
      const auto vtime =
          sim::Duration::from_ms(rng.uniform_int(1000, 8000));
      EXPECT_EQ(ls.on_hello(now, nb, lists, lost, vtime),
                ref_on_hello(now, nb, lists, lost, vtime));
    } else {
      EXPECT_EQ(ls.expire(now), ref_expire(now));
    }
    // Observable state must agree after every op.
    ASSERT_EQ(ls.size(), ref.size());
    std::vector<NodeId> ref_sym, ref_asym;
    for (const auto& [id, s] : ref) {
      if (s.tuple.symmetric(now)) ref_sym.push_back(id);
      if (s.tuple.asymmetric(now)) ref_asym.push_back(id);
    }
    ASSERT_EQ(ls.symmetric_neighbors(now), ref_sym);
    ASSERT_EQ(ls.asymmetric_neighbors(now), ref_asym);
  }
}

TEST_P(SlabEquivalence, NeighborTableMatchesMapReference) {
  struct RefNeighbor {
    Willingness will = Willingness::kDefault;
    bool symmetric = false;
  };
  std::map<NodeId, RefNeighbor> ref_nbrs;
  std::map<NodeId, std::map<NodeId, sim::Time>> ref_two_hops;

  sim::Rng rng{GetParam()};
  const NodeId self{0};
  NeighborTable nt{self};
  auto prev_rows = nt.reachability(self);
  auto prev_stamp = nt.rows_stamp();
  sim::Time now{};
  const auto wills = std::vector<Willingness>{
      Willingness::kNever, Willingness::kLow, Willingness::kDefault,
      Willingness::kHigh, Willingness::kAlways};
  // The reference's membership of `via`, ascending.
  const auto ref_members = [&](NodeId via) {
    std::vector<NodeId> out;
    if (const auto it = ref_two_hops.find(via); it != ref_two_hops.end())
      for (const auto& [th, _] : it->second) out.push_back(th);
    return out;
  };
  for (int step = 0; step < 300; ++step) {
    now = now + sim::Duration::from_ms(rng.uniform_int(0, 800));
    const NodeId nb{static_cast<std::uint32_t>(rng.uniform_int(1, 6))};
    switch (rng.uniform_int(0, 5)) {
      case 0: {
        const auto w = wills[static_cast<std::size_t>(rng.uniform_int(0, 4))];
        const bool sym = rng.uniform_int(0, 1) == 1;
        nt.upsert_neighbor(nb, w, sym);
        ref_nbrs[nb] = RefNeighbor{w, sym};
        break;
      }
      case 1: {
        std::vector<NodeId> ths;
        const int count = static_cast<int>(rng.uniform_int(0, 4));
        for (int i = 0; i < count; ++i)
          ths.push_back(
              NodeId{static_cast<std::uint32_t>(rng.uniform_int(0, 12))});
        const auto until = now + sim::Duration::from_ms(rng.uniform_int(500, 5000));
        auto fresh = ths;
        std::sort(fresh.begin(), fresh.end());
        fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
        const bool changed = fresh != ref_members(nb);
        EXPECT_EQ(nt.set_two_hops_via(nb, ths, until), changed)
            << "step " << step;
        ref_two_hops[nb].clear();
        for (auto th : ths) ref_two_hops[nb][th] = until;
        break;
      }
      case 5: {
        // A repeated advertisement: the held list, ascending, a new N_time.
        const auto until = now + sim::Duration::from_ms(rng.uniform_int(500, 5000));
        EXPECT_FALSE(nt.set_two_hops_via(nb, ref_members(nb), until))
            << "step " << step;
        for (auto& [th, t] : ref_two_hops[nb]) t = until;
        break;
      }
      case 2:
        nt.expire_two_hops(now);
        for (auto& [via, ths] : ref_two_hops)
          for (auto it = ths.begin(); it != ths.end();)
            it = it->second <= now ? ths.erase(it) : std::next(it);
        break;
      case 3:
        // remove_neighbor also drops the neighbor's 2-hop advertisements.
        nt.remove_neighbor(nb);
        ref_nbrs.erase(nb);
        ref_two_hops.erase(nb);
        break;
      case 4:
        nt.drop_two_hops_via(nb);
        ref_two_hops.erase(nb);
        break;
    }

    // The strict 2-hop nodes by the reference definition.
    std::set<NodeId> ref_strict;
    for (const auto& [via, ths] : ref_two_hops) {
      const auto n_it = ref_nbrs.find(via);
      if (n_it == ref_nbrs.end() || !n_it->second.symmetric) continue;
      for (const auto& [th, _] : ths) {
        if (th == self) continue;
        const auto th_it = ref_nbrs.find(th);
        if (th_it != ref_nbrs.end() && th_it->second.symmetric) continue;
        ref_strict.insert(th);
      }
    }
    // reachability: strict nodes grouped by advertising via, excluding
    // WILL_NEVER and non-symmetric vias, empties omitted.
    NeighborTable::Reachability ref_reach;
    for (const auto& [via, ths] : ref_two_hops) {
      const auto n_it = ref_nbrs.find(via);
      if (n_it == ref_nbrs.end() || !n_it->second.symmetric) continue;
      if (n_it->second.will == Willingness::kNever) continue;
      std::vector<NodeId> strict_via;
      for (const auto& [th, _] : ths)
        if (ref_strict.contains(th)) strict_via.push_back(th);
      if (!strict_via.empty()) ref_reach.emplace_back(via, strict_via);
    }

    // The 2-hop rows flatten to the reference's tuples, in (via, two_hop)
    // order, each with its via's one N_time.
    std::vector<std::tuple<NodeId, NodeId, sim::Time>> ref_tuples, tuples;
    for (const auto& [via, ths] : ref_two_hops)
      for (const auto& [th, until] : ths) ref_tuples.emplace_back(via, th, until);
    for (const auto& t : nt.two_hop_tuples())
      tuples.emplace_back(t.via, t.two_hop, t.valid_until);
    ASSERT_EQ(tuples, ref_tuples) << "step " << step;
    ASSERT_EQ(nt.two_hops_via(nb), ref_members(nb)) << "step " << step;

    // The mutators patch the maintained rows; any row change moves the
    // stamp. A table restored from the slabs rebuilds the same rows under a
    // fresh stamp, and now and then the script carries on with it.
    const auto rows = nt.reachability(self);
    ASSERT_EQ(rows, ref_reach) << "step " << step;
    if (rows != prev_rows) {
      ASSERT_NE(nt.rows_stamp(), prev_stamp) << "step " << step;
    }
    NeighborTable restored{self};
    restored.restore(nt.neighbor_tuples(), nt.two_hop_tuples());
    ASSERT_EQ(restored.reachability(self), ref_reach) << "step " << step;
    ASSERT_NE(restored.rows_stamp(), nt.rows_stamp());
    if (step % 50 == 49) nt = std::move(restored);
    prev_rows = rows;
    prev_stamp = nt.rows_stamp();
  }
}

TEST_P(SlabEquivalence, DuplicateSetMatchesFullScanReference) {
  struct RefEntry {
    sim::Time valid_until{};
    bool forwarded = false;
  };
  std::map<std::pair<NodeId, std::uint16_t>, RefEntry> ref;

  // Originators in and far outside the dense range; seqs that include a
  // band across the uint16 wrap.
  std::vector<NodeId> origins;
  for (std::uint32_t o = 1; o <= 5; ++o) origins.emplace_back(o);
  for (std::uint32_t o : {0x00FFFF00u, 0x00FFFF01u, 0xFFFFFFFEu})
    origins.emplace_back(o);
  std::vector<std::uint16_t> seqs;
  for (std::uint16_t s = 0; s < 16; ++s) seqs.push_back(s);
  for (std::uint16_t s = 65530; s != 0; ++s) seqs.push_back(s);
  const auto draw = [](sim::Rng& rng, const auto& pool) {
    return pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  };

  sim::Rng rng{GetParam()};
  DuplicateSet ds;
  sim::Time now{};
  // Constant hold time, like the agent's kDupHoldTime: the ring's FIFO order
  // then matches expiry order exactly.
  const auto hold = sim::Duration::from_seconds(3.0);
  for (int step = 0; step < 400; ++step) {
    now = now + sim::Duration::from_ms(rng.uniform_int(0, 900));
    const NodeId orig = draw(rng, origins);
    const std::uint16_t seq = draw(rng, seqs);
    if (rng.uniform_int(0, 4) == 0) {
      ds.expire(now);
      for (auto it = ref.begin(); it != ref.end();)
        it = it->second.valid_until <= now ? ref.erase(it) : std::next(it);
    } else {
      const bool fwd = rng.uniform_int(0, 1) == 1;
      ds.record(now, orig, seq, fwd, hold);
      auto& e = ref[{orig, seq}];
      e.valid_until = now + hold;
      e.forwarded = e.forwarded || fwd;
    }
    if (step % 50 == 49) {
      // Checkpoint round trip: the export is the model in key order, and
      // the run continues on the restored set.
      const auto entries = ds.entries();
      ASSERT_EQ(entries.size(), ref.size());
      auto it = ref.begin();
      for (const auto& e : entries) {
        ASSERT_EQ(std::pair(e.originator, e.seq), it->first);
        ASSERT_EQ(e.valid_until, it->second.valid_until);
        ASSERT_EQ(e.forwarded, it->second.forwarded);
        ++it;
      }
      DuplicateSet restored;
      restored.restore(entries, ds.ring());
      ds = std::move(restored);
    }
    ASSERT_EQ(ds.size(), ref.size()) << "step " << step;
    for (const auto o : origins) {
      for (const auto s : seqs) {
        const auto it = ref.find({o, s});
        ASSERT_EQ(ds.seen(o, s), it != ref.end());
        ASSERT_EQ(ds.forwarded(o, s),
                  it != ref.end() && it->second.forwarded);
      }
    }
  }
}

// Shared by the agent-level suites below: a random script of
// HELLO-driven 2-hop churn, TC ANSN churn, expiry, link lapse by time,
// reset_tables and a checkpoint save/restore, applied to a real Agent n0
// that five puppet transmitters feed. With `churn_willingness` the HELLOs
// also advertise NEVER, DEFAULT or ALWAYS (drawn only then, so the routing
// suite's seeded scripts do not depend on it). Steps start on
// housekeeping ticks (every 500 ms from t=0, jitter-free) and end on one,
// so the derived state `check(agent, now, step)` reads was computed at now;
// it also runs right after each restore. HELLOs arrive between ticks. Some
// steps shorten a symmetric link's L_SYM_time so that it lapses after a
// tick, and a HELLO that no longer lists us follows before the next one:
// neither HELLO flips the link and the next tick's expiry no longer sees
// it as symmetric, so only the lapse time the first HELLO lowered makes
// the agent re-sync its self edges. Some steps also send data at a random
// instant between ticks: that refreshes the live graph (self edges
// included) without a routing run, which the next run must account for.
// Just before, the agent's path query must answer as a search over the
// synced graph copy does, for every destination and avoided relay.
void drive_agent(
    std::uint64_t seed, bool churn_willingness,
    const std::function<void(const Agent&, sim::Time, int)>& check) {
  const NodeId self{0};
  constexpr std::uint32_t kPuppets = 5;  // n1..n5 transmit; n6..n10 are far
  constexpr std::uint32_t kIds = 11;
  sim::Rng rng{seed};
  sim::Simulator sim{seed};
  net::Medium medium{sim, net::RadioConfig{}};
  for (std::uint32_t p = 1; p <= kPuppets; ++p)
    medium.attach(NodeId{p}, net::Position{10.0 * p, 0.0});
  Agent agent{sim, medium, self, Agent::Config{}};
  agent.start();

  std::uint16_t seq = 1;
  std::map<NodeId, std::uint16_t> ansn;
  auto random_ids = [&](NodeId except) {
    std::vector<NodeId> out;
    for (std::uint32_t i = 0; i < kIds; ++i)
      if (NodeId{i} != except && rng.uniform_int(0, 2) == 0)
        out.push_back(NodeId{i});
    return out;
  };
  auto inject = [&](NodeId transmitter, Message m) {
    m.header.seq_num = seq++;
    OlsrPacket packet;
    packet.seq_num = seq++;
    packet.messages.push_back(std::move(m));
    medium.broadcast(transmitter, serialize_packet(packet));
  };
  const auto ms = [](std::int64_t n) { return sim::Duration::from_ms(n); };
  auto vtime = [&] { return ms(rng.uniform_int(1500, 7000)); };
  auto pick = [&](std::uint32_t lo, std::uint32_t hi) {
    return NodeId{static_cast<std::uint32_t>(rng.uniform_int(lo, hi))};
  };
  const auto wills = std::vector<Willingness>{
      Willingness::kNever, Willingness::kDefault, Willingness::kAlways};
  // A HELLO from `from` that lists us (-> symmetric link) or not, with a
  // random advertised symmetric set (-> 2-hop churn; n0 is skipped).
  auto hello = [&](NodeId from, bool lists_us, sim::Duration valid) {
    HelloMessage h;
    if (lists_us) h.add(LinkType::kSym, NeighborType::kSymNeigh, self);
    for (const auto n : random_ids(from))
      if (n != self) h.add(LinkType::kSym, NeighborType::kSymNeigh, n);
    if (churn_willingness)
      h.willingness = wills[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    Message m;
    m.header.type = MessageType::kHello;
    m.header.vtime = valid;
    m.header.originator = from;
    m.header.ttl = 1;
    m.body = h;
    inject(from, std::move(m));
  };

  for (int step = 0; step < 60; ++step) {
    const auto tick = sim.now();
    std::int64_t min_ticks = 1;
    const auto op = rng.uniform_int(0, 26);
    if (op < 12) {
      sim.run_until(tick + ms(rng.uniform_int(1, 499)));
      const NodeId from = pick(1, kPuppets);
      const bool lists_us = rng.uniform_int(0, 3) > 0;
      hello(from, lists_us, vtime());
    } else if (op < 22) {
      // TC from any originator relayed by a puppet; ANSNs mostly advance,
      // sometimes repeat or go stale (ignored).
      const NodeId via = pick(1, kPuppets);
      const NodeId origin = pick(1, kIds - 1);
      auto& a = ansn[origin];
      a = static_cast<std::uint16_t>(a + rng.uniform_int(-1, 2));
      TcMessage tc;
      tc.ansn = a;
      tc.advertised = random_ids(origin);
      Message m;
      m.header.type = MessageType::kTc;
      m.header.vtime = vtime();
      m.header.originator = origin;
      m.header.ttl = 8;
      m.header.hop_count = origin == via ? 0 : 1;
      m.body = tc;
      inject(via, std::move(m));
    } else if (op == 22) {
      agent.stop();
      agent.reset_tables();
      agent.start();
    } else if (op < 25) {
      // Save and restore in place: tables and routes come back from bytes
      // and the graph and reach rows are rebuilt from the restored tables.
      faults::CheckpointWriter w;
      faults::encode_agent(w, agent);
      const auto bytes = w.take();
      faults::CheckpointReader r{bytes};
      faults::decode_agent(r, agent);
      ASSERT_TRUE(r.at_end());
      check(agent, sim.now(), step);
      if (::testing::Test::HasFatalFailure()) return;
    } else if (const auto sym = agent.links().symmetric_neighbors(tick);
               !sym.empty()) {
      // Refresh a symmetric link at tick + `at` with a 1 s vtime (exact in
      // the wire format), so it lapses 1 s later, past the tick at
      // tick + 1000 ms; then the same neighbor's HELLO without us, before
      // the tick at tick + 1500 ms.
      const auto i = rng.uniform_int(0, static_cast<std::int64_t>(sym.size()) - 1);
      const NodeId from = sym[static_cast<std::size_t>(i)];
      const auto at = rng.uniform_int(1, 400);
      sim.run_until(tick + ms(at));
      hello(from, /*lists_us=*/true, ms(1000));
      sim.run_until(tick + ms(1000 + at + rng.uniform_int(2, 498 - at)));
      hello(from, /*lists_us=*/false, vtime());
      min_ticks = 3;
    }
    const auto ticks =
        std::max(min_ticks, rng.uniform_int(0, 5) == 0 ? rng.uniform_int(6, 20)
                                                       : rng.uniform_int(1, 3));
    const auto end = tick + ms(500 * ticks);
    if (rng.uniform_int(0, 2) == 0) {
      sim.run_until(
          std::max(sim.now(), tick + ms(rng.uniform_int(1, 500 * ticks - 1))));
      const auto copy = agent.knowledge_graph();
      for (std::uint32_t d = 0; d < kIds; ++d) {
        for (std::uint32_t a = 0; a <= kIds; ++a) {
          std::vector<NodeId> avoid;
          if (a < kIds) avoid.push_back(NodeId{a});
          ASSERT_EQ(agent.path_avoiding(NodeId{d}, avoid),
                    RoutingTable::shortest_path(copy, self, NodeId{d}, avoid))
              << "step " << step << " dest " << d << " avoid " << a;
        }
      }
      agent.send_data(pick(1, kIds - 1), 0, {});
    }
    sim.run_until(end);
    check(agent, sim.now(), step);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Routing skips taken by the agent driven with `seed` (no checks).
std::uint64_t route_skips(std::uint64_t seed) {
  obs::Context ctx;
  obs::Scope scope{&ctx};
  drive_agent(seed, /*churn_willingness=*/false,
              [](const Agent&, sim::Time, int) {});
  return ctx.snapshot().counter_value(obs::hot_name(obs::Hot::kRouteSkips));
}

// Routing on a real Agent against the spec (§10). After every step the
// live graph must equal the §10 union rebuilt from the tables, and the
// routes a naive std::map BFS over that union (FIFO queue, neighbors
// ascending): same destinations, distances, and next hop = first hop of
// the BFS-first parent chain. Routes settled by the routing table's BFS
// skip are held to the same reference (RoutingSkip.FiresInTheSeededScripts
// shows the scripts take it). (The name is kept so the 50 seeded cases
// keep their ids.)
TEST_P(SlabEquivalence, IncrementalRoutingMatchesFullRebuild) {
  drive_agent(GetParam(), /*churn_willingness=*/false,
              [](const Agent& agent, sim::Time now, int step) {
    const NodeId self = agent.id();
    std::set<std::pair<NodeId, NodeId>> spec;
    auto edge = [&](NodeId a, NodeId b) {
      if (a == self || b == self) return;  // only links touch self
      spec.insert({a, b});
      spec.insert({b, a});
    };
    for (const auto n : agent.links().symmetric_neighbors(now)) {
      spec.insert({self, n});
      spec.insert({n, self});
    }
    for (const auto& t : agent.neighbors().two_hop_tuples())
      edge(t.via, t.two_hop);
    for (const auto& t : agent.topology().tuples()) edge(t.last_hop, t.dest);
    ASSERT_EQ(agent.knowledge_graph().arcs(), Arcs(spec.begin(), spec.end()))
        << "step " << step;

    std::map<NodeId, std::set<NodeId>> adj;
    for (const auto& [a, b] : spec) adj[a].insert(b);
    std::map<NodeId, int> dist{{self, 0}};
    std::map<NodeId, NodeId> parent;
    std::vector<NodeId> queue{self};
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const auto u = queue[head];
      for (const auto v : adj[u]) {
        if (dist.contains(v)) continue;
        dist[v] = dist[u] + 1;
        parent[v] = u;
        queue.push_back(v);
      }
    }
    std::vector<RoutingTable::Entry> expected;
    for (const auto& [dest, d] : dist) {
      if (dest == self) continue;
      NodeId hop = dest;
      while (parent[hop] != self) hop = parent[hop];
      expected.push_back({dest, hop, d});
    }
    ASSERT_EQ(agent.routes().entries(), expected) << "step " << step;
  });
}

// The lockstep check above proves the skip right only where a script takes
// it. Each seeded case runs in a process of its own under CTest, so the
// count over all 50 scripts is taken here: most seeds skip at least once.
TEST(RoutingSkip, FiresInTheSeededScripts) {
  int seeds_skipping = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed)
    seeds_skipping += route_skips(seed) > 0;
  EXPECT_GE(seeds_skipping, 25);
}

// MPR selection on a real Agent against the naive §8.3.1 model
// (tests/mpr_reference.hpp), with willingness churn on top of the routing
// suite's script. After every step the table's maintained reach rows must
// equal the model's N2-per-neighbor derivation of its slabs, and mpr_set()
// the model's selection on them. N is the symmetric links at now and the
// rows key off NeighborTuple::symmetric, as the agent does, so the model
// reproduces the agent's known deviation (an MPR set that can outlast a
// link's symmetry; see ROADMAP).
TEST_P(SlabEquivalence, IncrementalMprMatchesReference) {
  drive_agent(GetParam(), /*churn_willingness=*/true,
              [](const Agent& agent, sim::Time now, int step) {
    const auto& nt = agent.neighbors();
    const auto rows = reference::reach_rows(agent.id(), nt.neighbor_tuples(),
                                            nt.two_hop_tuples());
    ASSERT_EQ(nt.reachability(agent.id()), reference::flat(rows))
        << "step " << step;

    std::map<NodeId, Willingness> will;
    for (const auto& t : nt.neighbor_tuples()) will[t.id] = t.willingness;
    reference::Neighbors n;
    for (const auto y : agent.links().symmetric_neighbors(now))
      n[y] = will.contains(y) ? will[y] : Willingness::kDefault;
    const auto expected = reference::select(n, rows);
    ASSERT_EQ(agent.mpr_set(),
              std::vector<NodeId>(expected.begin(), expected.end()))
        << "step " << step;
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlabEquivalence,
                         ::testing::Range<std::uint64_t>(1, 51));

}  // namespace
}  // namespace manet::olsr
