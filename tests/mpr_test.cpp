// Tests for the RFC 3626 §8.3.1 MPR selection heuristic, including
// randomized property sweeps over the coverage invariant — the invariant a
// link spoofing attack exploits from the victim's side — and a randomized
// comparison with the naive std::map/std::set model in mpr_reference.hpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "mpr_reference.hpp"
#include "olsr/mpr_selection.hpp"
#include "sim/rng.hpp"

namespace manet::olsr {
namespace {

NodeId n(std::uint32_t v) { return NodeId{v}; }

// Builders keeping the flat MprInputs slabs sorted the way the agent does.
void set_will(MprInputs& in, NodeId id, Willingness w) {
  auto it = std::lower_bound(
      in.neighbors.begin(), in.neighbors.end(), id,
      [](const auto& p, NodeId v) { return p.first < v; });
  if (it != in.neighbors.end() && it->first == id) {
    it->second = w;
  } else {
    in.neighbors.insert(it, {id, w});
  }
}

void add_reach(MprInputs& in, NodeId via, NodeId two_hop) {
  auto it = std::lower_bound(
      in.reach.begin(), in.reach.end(), via,
      [](const auto& p, NodeId v) { return p.first < v; });
  if (it == in.reach.end() || it->first != via)
    it = in.reach.insert(it, {via, {}});
  auto& ths = it->second;
  auto pos = std::lower_bound(ths.begin(), ths.end(), two_hop);
  if (pos == ths.end() || *pos != two_hop) ths.insert(pos, two_hop);
}

bool contains(const std::vector<NodeId>& sorted, NodeId id) {
  return std::binary_search(sorted.begin(), sorted.end(), id);
}

TEST(MprSelection, EmptyInputsEmptyMprs) {
  EXPECT_TRUE(select_mprs(MprInputs{}).empty());
}

TEST(MprSelection, NoTwoHopsNoMprs) {
  MprInputs in;
  set_will(in, n(1), Willingness::kDefault);
  set_will(in, n(2), Willingness::kDefault);
  EXPECT_TRUE(select_mprs(in).empty());
}

TEST(MprSelection, WillAlwaysIsAlwaysSelected) {
  MprInputs in;
  set_will(in, n(1), Willingness::kAlways);
  set_will(in, n(2), Willingness::kDefault);
  add_reach(in, n(2), n(10));
  const auto mprs = select_mprs(in);
  EXPECT_TRUE(contains(mprs, n(1)));
  EXPECT_TRUE(contains(mprs, n(2)));
}

TEST(MprSelection, SoleProviderForced) {
  MprInputs in;
  set_will(in, n(1), Willingness::kDefault);
  set_will(in, n(2), Willingness::kDefault);
  add_reach(in, n(1), n(10));
  add_reach(in, n(1), n(11));
  add_reach(in, n(2), n(11));
  add_reach(in, n(2), n(12));  // only n2 reaches n12
  const auto mprs = select_mprs(in);
  EXPECT_TRUE(contains(mprs, n(2)));
}

TEST(MprSelection, GreedyPrefersLargerCoverage) {
  MprInputs in;
  for (std::uint32_t i = 1; i <= 3; ++i)
    set_will(in, n(i), Willingness::kDefault);
  add_reach(in, n(1), n(10));
  add_reach(in, n(1), n(11));
  add_reach(in, n(1), n(12));
  add_reach(in, n(2), n(10));
  add_reach(in, n(3), n(11));
  const auto mprs = select_mprs(in);
  EXPECT_EQ(mprs, (std::vector<NodeId>{n(1)}));
}

TEST(MprSelection, TieBrokenByWillingness) {
  MprInputs in;
  set_will(in, n(1), Willingness::kLow);
  set_will(in, n(2), Willingness::kHigh);
  add_reach(in, n(1), n(10));
  add_reach(in, n(2), n(10));
  const auto mprs = select_mprs(in);
  EXPECT_EQ(mprs, (std::vector<NodeId>{n(2)}));
}

TEST(MprSelection, TieBrokenByIdForDeterminism) {
  MprInputs in;
  set_will(in, n(5), Willingness::kDefault);
  set_will(in, n(2), Willingness::kDefault);
  add_reach(in, n(5), n(10));
  add_reach(in, n(2), n(10));
  EXPECT_EQ(select_mprs(in), (std::vector<NodeId>{n(2)}));
}

TEST(MprSelection, UnreachableTwoHopDoesNotLoopForever) {
  MprInputs in;
  set_will(in, n(1), Willingness::kDefault);
  add_reach(in, n(1), n(10));
  // n11 appears via a neighbor with no entry in `neighbors` — a degenerate
  // input; the loop must terminate with partial coverage.
  add_reach(in, n(99), n(11));
  const auto mprs = select_mprs(in);
  EXPECT_TRUE(contains(mprs, n(1)));
}

TEST(MprSelection, CoversAllTwoHopsDetectsGaps) {
  MprInputs in;
  set_will(in, n(1), Willingness::kDefault);
  set_will(in, n(2), Willingness::kDefault);
  add_reach(in, n(1), n(10));
  add_reach(in, n(2), n(11));
  EXPECT_FALSE(covers_all_two_hops(in, {n(1)}));
  EXPECT_TRUE(covers_all_two_hops(in, {n(1), n(2)}));
}

// The paper's Expression 1 exploit, from the selector's perspective: a
// neighbor advertising a phantom 2-hop node is guaranteed to be selected,
// because it is the phantom's sole provider.
TEST(MprSelection, PhantomNeighborForcesAttackerSelection) {
  MprInputs in;
  for (std::uint32_t i = 1; i <= 4; ++i)
    set_will(in, n(i), Willingness::kDefault);
  add_reach(in, n(1), n(10));
  add_reach(in, n(1), n(11));
  add_reach(in, n(2), n(10));
  add_reach(in, n(2), n(11));
  // The attacker n4 has poor real coverage but invents phantom n99.
  add_reach(in, n(4), n(99));
  const auto mprs = select_mprs(in);
  EXPECT_TRUE(contains(mprs, n(4)));
}

// The scratch overload must agree with the plain one (the agent uses the
// former; tests mostly exercise the latter).
TEST(MprSelection, ScratchOverloadMatchesPlain) {
  MprInputs in;
  for (std::uint32_t i = 1; i <= 4; ++i)
    set_will(in, n(i), Willingness::kDefault);
  add_reach(in, n(1), n(10));
  add_reach(in, n(2), n(10));
  add_reach(in, n(2), n(11));
  add_reach(in, n(3), n(12));
  MprScratch scratch;
  std::vector<NodeId> out{n(77)};  // stale content must be cleared
  select_mprs(in, scratch, out);
  EXPECT_EQ(out, select_mprs(in));
}

// Property sweep: for random neighborhoods, the selected MPR set always
// covers every strict 2-hop node and never includes WILL_NEVER-excluded
// entries (the caller drops them from reach).
class MprProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MprProperty, CoverageInvariants) {
  sim::Rng rng{GetParam()};
  MprInputs in;
  const int n1_count = static_cast<int>(rng.uniform_int(1, 12));
  const int n2_count = static_cast<int>(rng.uniform_int(1, 20));
  for (int i = 1; i <= n1_count; ++i) {
    const auto w = std::vector<Willingness>{
        Willingness::kLow, Willingness::kDefault, Willingness::kHigh,
        Willingness::kAlways}[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    set_will(in, n(static_cast<std::uint32_t>(i)), w);
  }
  for (int j = 0; j < n2_count; ++j) {
    const auto two_hop = n(static_cast<std::uint32_t>(100 + j));
    const int providers = static_cast<int>(rng.uniform_int(1, n1_count));
    for (int k = 0; k < providers; ++k) {
      const auto via =
          n(static_cast<std::uint32_t>(rng.uniform_int(1, n1_count)));
      add_reach(in, via, two_hop);
    }
  }

  const auto mprs = select_mprs(in);
  EXPECT_TRUE(covers_all_two_hops(in, mprs));
  EXPECT_TRUE(std::is_sorted(mprs.begin(), mprs.end()));
  for (auto m : mprs) {
    const auto it = std::lower_bound(
        in.neighbors.begin(), in.neighbors.end(), m,
        [](const auto& p, NodeId v) { return p.first < v; });
    EXPECT_TRUE(it != in.neighbors.end() && it->first == m);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MprProperty,
                         ::testing::Range<std::uint64_t>(1, 40));

// select_mprs against the naive model on random neighborhoods: WILL_ALWAYS
// and WILL_NEVER members, vias missing from N, members reaching nothing,
// 2-hop nodes only vias outside N reach, rows copied from their predecessor
// (exact ties on gain, and on willingness when the level range is narrow,
// down to the id tie-break). Most trials are small (at most 8 vias and 10
// 2-hops); every 20th is large (60-90 vias, 100-300 2-hops at a random
// density, so a 2-hop set spans several 64-bit words).
// 2-hop ids mix small values with ids above 4096 and near 2^32, and one
// MprScratch serves every call, so state a large run leaves behind is read
// by the small run after it.
class MprReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MprReference, MatchesNaiveModel) {
  sim::Rng rng{GetParam()};
  const std::vector<Willingness> levels{
      Willingness::kNever, Willingness::kLow, Willingness::kDefault,
      Willingness::kHigh, Willingness::kAlways};
  // 2-hop x's id: small, above 4096, or near the top of the id range.
  const auto two_hop_id = [&](std::uint32_t x) {
    switch (rng.uniform_int(0, 2)) {
      case 0: return n(100 + x);
      case 1: return n(4096 + 977 * x);
      default: return n(0xFFFFFFFFu - x);
    }
  };
  MprScratch scratch;
  std::vector<NodeId> out{n(77)};  // stale content must be replaced
  std::size_t id_ties = 0;
  std::size_t large_trials = 0;
  std::size_t max_two_hops = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const bool large = trial % 20 == 10;
    large_trials += large;
    const auto vias = static_cast<std::uint32_t>(
        large ? rng.uniform_int(60, 90) : rng.uniform_int(0, 8));
    const auto two_hops = static_cast<std::uint32_t>(
        large ? rng.uniform_int(100, 300) : rng.uniform_int(0, 10));
    // A row holds each 2-hop with probability 1/density.
    const auto density = large ? rng.uniform_int(2, 40) : 3;
    std::vector<NodeId> ids;
    for (std::uint32_t x = 0; x < two_hops; ++x) ids.push_back(two_hop_id(x));
    const auto lo = rng.uniform_int(0, 4);
    const auto hi = std::min<std::int64_t>(4, lo + rng.uniform_int(0, 2));
    reference::Neighbors nbrs;
    reference::Reach reach;
    for (std::uint32_t y = 1; y <= vias; ++y) {
      if (rng.uniform_int(0, 4) > 0)  // else a via missing from N
        nbrs[n(y)] = levels[static_cast<std::size_t>(rng.uniform_int(lo, hi))];
      if (rng.uniform_int(0, 4) == 0) continue;  // reaches nothing
      auto& row = reach[n(y)];
      if (y > 1 && reach.contains(n(y - 1)) && rng.uniform_int(0, 2) == 0) {
        row = reach[n(y - 1)];
        id_ties += nbrs.contains(n(y)) && nbrs.contains(n(y - 1)) &&
                   nbrs[n(y)] == nbrs[n(y - 1)] && !row.empty();
        continue;
      }
      for (const auto id : ids)
        if (rng.uniform_int(1, density) == 1) row.insert(id);
    }
    std::set<NodeId> n2;
    for (const auto& [y, nodes] : reach) n2.insert(nodes.begin(), nodes.end());
    max_two_hops = std::max(max_two_hops, n2.size());
    MprInputs in;
    in.neighbors.assign(nbrs.begin(), nbrs.end());
    in.reach = reference::flat(reach);
    const auto model = reference::select(nbrs, reach);
    const std::vector<NodeId> expected(model.begin(), model.end());
    select_mprs(in, scratch, out);
    ASSERT_EQ(out, expected) << "trial " << trial;
    ASSERT_EQ(select_mprs(in), expected) << "trial " << trial;
  }
  EXPECT_GT(id_ties, 0u);  // the generator does reach the last tie-break
  EXPECT_EQ(large_trials, 100u);
  EXPECT_GT(max_two_hops, 192u);  // some run spans four words
}

INSTANTIATE_TEST_SUITE_P(Seeds, MprReference,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace manet::olsr
