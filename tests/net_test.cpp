// Unit tests for the wireless substrate: node ids, the id index, medium
// delivery/loss/collision semantics, mobility models, topology generators.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/id_map.hpp"
#include "net/medium.hpp"
#include "net/mobility.hpp"
#include "net/node_id.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace manet::net {
namespace {

TEST(NodeId, RoundTripString) {
  const NodeId n{42};
  EXPECT_EQ(n.to_string(), "n42");
  EXPECT_EQ(NodeId::parse("n42"), n);
  EXPECT_TRUE(n.valid());
  EXPECT_FALSE(NodeId{}.valid());
}

TEST(NodeId, ParseRejectsGarbage) {
  EXPECT_THROW(NodeId::parse(""), std::invalid_argument);
  EXPECT_THROW(NodeId::parse("x42"), std::invalid_argument);
  EXPECT_THROW(NodeId::parse("n"), std::invalid_argument);
  EXPECT_THROW(NodeId::parse("n42x"), std::invalid_argument);
  EXPECT_THROW(NodeId::parse("n-1"), std::invalid_argument);
}

TEST(IdMap, BothSidesOfTheDenseBoundary) {
  IdMap<int> map{-1};
  const NodeId last_dense{kDenseIds - 1};
  const NodeId first_far{kDenseIds};
  const NodeId top{0xFFFFFFFEu};
  // Never entered: the absent value, on either side of the boundary.
  for (const NodeId id : {NodeId{0}, last_dense, first_far, top})
    EXPECT_EQ(map.get(id), -1) << id.to_string();

  map[NodeId{3}] = 30;
  map[last_dense] = 40;
  map[top] = 60;
  map[first_far] = 50;
  EXPECT_EQ(map.get(NodeId{3}), 30);
  EXPECT_EQ(map.get(last_dense), 40);
  EXPECT_EQ(map.get(first_far), 50);
  EXPECT_EQ(map.get(top), 60);
  // Ids the entries above made room for, or that sit next to them, stay
  // absent.
  for (const NodeId id : {NodeId{2}, NodeId{4}, NodeId{kDenseIds + 1},
                          NodeId{0xFFFFFFFDu}})
    EXPECT_EQ(map.get(id), -1) << id.to_string();
  ++map[first_far];
  EXPECT_EQ(map.get(first_far), 51);

  using Seen = std::vector<std::pair<NodeId, int>>;
  const auto seen = [&map] {
    Seen out;
    map.for_each([&out](NodeId id, int v) { out.emplace_back(id, v); });
    return out;
  };
  EXPECT_EQ(seen(), (Seen{{NodeId{3}, 30}, {last_dense, 40},
                          {first_far, 51}, {top, 60}}));

  // Erase on each side, and of ids never entered.
  map.erase(last_dense);
  map.erase(first_far);
  map.erase(NodeId{100});
  map.erase(NodeId{0xFFFFFFF0u});
  EXPECT_EQ(map.get(last_dense), -1);
  EXPECT_EQ(map.get(first_far), -1);
  EXPECT_EQ(seen(), (Seen{{NodeId{3}, 30}, {top, 60}}));
  map[first_far] = 7;
  EXPECT_EQ(map.get(first_far), 7);

  map.clear();
  for (const NodeId id : {NodeId{3}, last_dense, first_far, top})
    EXPECT_EQ(map.get(id), -1) << id.to_string();
  EXPECT_TRUE(seen().empty());
  map[top] = 1;
  EXPECT_EQ(seen(), (Seen{{top, 1}}));
}

TEST(Position, DistanceAndArithmetic) {
  const Position a{0, 0}, b{3, 4};
  EXPECT_DOUBLE_EQ(distance(a, b), 5.0);
  EXPECT_EQ((b * 2.0).x, 6.0);
  EXPECT_EQ((b - a).y, 4.0);
}

class MediumTest : public ::testing::Test {
 protected:
  sim::Simulator sim{123};
  RadioConfig lossless() {
    RadioConfig c;
    c.range_m = 100.0;
    c.loss_probability = 0.0;
    return c;
  }
};

TEST_F(MediumTest, BroadcastReachesOnlyInRange) {
  Medium m{sim, lossless()};
  std::vector<NodeId> received;
  m.attach(NodeId{0}, {0, 0});
  m.attach(NodeId{1}, {50, 0},
           [&](const Packet& p) { received.push_back(p.transmitter); });
  m.attach(NodeId{2}, {500, 0},
           [&](const Packet&) { FAIL() << "out of range"; });
  m.broadcast(NodeId{0}, Bytes{1, 2, 3});
  sim.run_all();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], NodeId{0});
}

TEST_F(MediumTest, UnicastReachesOnlyTarget) {
  Medium m{sim, lossless()};
  int n1 = 0, n2 = 0;
  m.attach(NodeId{0}, {0, 0});
  m.attach(NodeId{1}, {10, 0}, [&](const Packet&) { ++n1; });
  m.attach(NodeId{2}, {20, 0}, [&](const Packet&) { ++n2; });
  m.unicast(NodeId{0}, NodeId{2}, Bytes{9});
  sim.run_all();
  EXPECT_EQ(n1, 0);
  EXPECT_EQ(n2, 1);
}

TEST_F(MediumTest, UnicastOutOfRangeLost) {
  Medium m{sim, lossless()};
  int got = 0;
  m.attach(NodeId{0}, {0, 0});
  m.attach(NodeId{1}, {500, 0}, [&](const Packet&) { ++got; });
  m.unicast(NodeId{0}, NodeId{1}, Bytes{9});
  sim.run_all();
  EXPECT_EQ(got, 0);
}

TEST_F(MediumTest, DownHostNeitherSendsNorReceives) {
  Medium m{sim, lossless()};
  int got = 0;
  m.attach(NodeId{0}, {0, 0});
  m.attach(NodeId{1}, {10, 0}, [&](const Packet&) { ++got; });
  m.set_up(NodeId{1}, false);
  m.broadcast(NodeId{0}, Bytes{1});
  sim.run_all();
  EXPECT_EQ(got, 0);
  m.set_up(NodeId{1}, true);
  m.set_up(NodeId{0}, false);
  m.broadcast(NodeId{0}, Bytes{1});
  sim.run_all();
  EXPECT_EQ(got, 0);
}

TEST_F(MediumTest, LossProbabilityDropsAboutRightFraction) {
  auto c = lossless();
  c.loss_probability = 0.25;
  Medium m{sim, c};
  int got = 0;
  m.attach(NodeId{0}, {0, 0});
  m.attach(NodeId{1}, {10, 0}, [&](const Packet&) { ++got; });
  const int sent = 4000;
  for (int i = 0; i < sent; ++i) m.broadcast(NodeId{0}, Bytes{1});
  sim.run_all();
  EXPECT_NEAR(static_cast<double>(got) / sent, 0.75, 0.03);
  EXPECT_EQ(m.stats().losses + m.stats().deliveries,
            static_cast<std::uint64_t>(sent));
}

TEST_F(MediumTest, DeliveryDelayWithinConfiguredBounds) {
  auto c = lossless();
  c.base_delay = sim::Duration::from_us(400);
  c.delay_jitter = sim::Duration::from_us(600);
  Medium m{sim, c};
  std::vector<std::int64_t> arrivals;
  m.attach(NodeId{0}, {0, 0});
  m.attach(NodeId{1}, {10, 0},
           [&](const Packet&) { arrivals.push_back(sim.now().us()); });
  for (int i = 0; i < 200; ++i) m.broadcast(NodeId{0}, Bytes{1});
  sim.run_all();
  ASSERT_EQ(arrivals.size(), 200u);
  for (auto t : arrivals) {
    EXPECT_GE(t, 400);
    EXPECT_LE(t, 1000);
  }
}

TEST_F(MediumTest, CollisionWindowCorruptsOverlappingFrames) {
  auto c = lossless();
  c.base_delay = sim::Duration::from_us(100);
  c.delay_jitter = sim::Duration{};
  c.collision_window = sim::Duration::from_us(50);
  Medium m{sim, c};
  int got = 0;
  m.attach(NodeId{0}, {0, 0});
  m.attach(NodeId{1}, {0, 50});
  m.attach(NodeId{2}, {0, 25}, [&](const Packet&) { ++got; });
  // Two simultaneous transmissions arrive within the window: both corrupt.
  m.broadcast(NodeId{0}, Bytes{1});
  m.broadcast(NodeId{1}, Bytes{2});
  sim.run_all();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(m.stats().collisions, 2u);
}

TEST_F(MediumTest, SpacedFramesDoNotCollide) {
  auto c = lossless();
  c.base_delay = sim::Duration::from_us(100);
  c.delay_jitter = sim::Duration{};
  c.collision_window = sim::Duration::from_us(50);
  Medium m{sim, c};
  int got = 0;
  m.attach(NodeId{0}, {0, 0});
  m.attach(NodeId{1}, {0, 25}, [&](const Packet&) { ++got; });
  m.broadcast(NodeId{0}, Bytes{1});
  sim.run_until(sim.now() + sim::Duration::from_ms(10));
  m.broadcast(NodeId{0}, Bytes{2});
  sim.run_all();
  EXPECT_EQ(got, 2);
  EXPECT_EQ(m.stats().collisions, 0u);
}

TEST_F(MediumTest, AttachTwiceThrows) {
  Medium m{sim, lossless()};
  m.attach(NodeId{0}, {0, 0});
  EXPECT_THROW(m.attach(NodeId{0}, {1, 1}), std::logic_error);
}

TEST_F(MediumTest, UnknownHostThrows) {
  Medium m{sim, lossless()};
  EXPECT_THROW(m.position(NodeId{9}), std::out_of_range);
  EXPECT_THROW(m.set_position(NodeId{9}, {0, 0}), std::out_of_range);
}

TEST_F(MediumTest, NeighborsInRangeGroundTruth) {
  Medium m{sim, lossless()};
  m.attach(NodeId{0}, {0, 0});
  m.attach(NodeId{1}, {50, 0});
  m.attach(NodeId{2}, {90, 0});
  m.attach(NodeId{3}, {300, 0});
  const auto nbrs = m.neighbors_in_range(NodeId{0});
  EXPECT_EQ(nbrs, (std::vector<NodeId>{NodeId{1}, NodeId{2}}));
}

TEST(Mobility, StaticStaysPut) {
  sim::Rng rng{1};
  StaticMobility s{{5, 5}};
  EXPECT_EQ(s.step(sim::Duration::from_seconds(10), rng), (Position{5, 5}));
}

TEST(Mobility, RandomWaypointStaysInArea) {
  sim::Rng rng{77};
  RandomWaypoint::Config c;
  c.area_width = 100;
  c.area_height = 100;
  c.speed_min_mps = 5;
  c.speed_max_mps = 10;
  c.pause = sim::Duration::from_seconds(0.5);
  RandomWaypoint rw{{50, 50}, c};
  for (int i = 0; i < 1000; ++i) {
    const auto p = rw.step(sim::Duration::from_ms(250), rng);
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 100.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 100.0);
  }
}

TEST(Mobility, RandomWaypointRespectsSpeedLimit) {
  sim::Rng rng{78};
  RandomWaypoint::Config c;
  c.area_width = 1000;
  c.area_height = 1000;
  c.speed_min_mps = 2;
  c.speed_max_mps = 4;
  c.pause = sim::Duration{};
  RandomWaypoint rw{{500, 500}, c};
  Position prev = rw.current();
  for (int i = 0; i < 500; ++i) {
    const auto p = rw.step(sim::Duration::from_ms(500), rng);
    EXPECT_LE(distance(prev, p), 4.0 * 0.5 + 1e-9);
    prev = p;
  }
}

TEST(Mobility, ManagerMovesMediumPositions) {
  sim::Simulator s{5};
  Medium m{s, RadioConfig{}};
  m.attach(NodeId{0}, {0, 0});
  MobilityManager mgr{s, m, sim::Duration::from_ms(100)};
  RandomWaypoint::Config c;
  c.speed_min_mps = 10;
  c.speed_max_mps = 10;
  c.pause = sim::Duration{};
  mgr.set_model(NodeId{0}, std::make_unique<RandomWaypoint>(Position{0, 0}, c));
  mgr.start();
  s.run_until(sim::Time::from_seconds(5.0));
  mgr.stop();
  EXPECT_GT(distance(m.position(NodeId{0}), Position{0, 0}), 1.0);
}

TEST(Topology, GridShapeAndSpacing) {
  const auto g = grid_layout(9, 100.0);
  ASSERT_EQ(g.size(), 9u);
  EXPECT_EQ(g[0], (Position{0, 0}));
  EXPECT_EQ(g[4], (Position{100, 100}));
  EXPECT_EQ(g[8], (Position{200, 200}));
}

TEST(Topology, ChainAndRing) {
  const auto c = chain_layout(4, 50.0);
  EXPECT_DOUBLE_EQ(distance(c[0], c[3]), 150.0);
  const auto r = ring_layout(6, 100.0);
  for (const auto& p : r) EXPECT_NEAR(p.norm(), 100.0, 1e-9);
}

TEST(Topology, RandomLayoutRespectsSeparation) {
  sim::Rng rng{3};
  const auto pts = random_layout(30, 500, 500, 20.0, rng);
  ASSERT_EQ(pts.size(), 30u);
  for (std::size_t i = 0; i < pts.size(); ++i)
    for (std::size_t j = i + 1; j < pts.size(); ++j)
      EXPECT_GE(distance(pts[i], pts[j]), 20.0);
}

TEST(Topology, RandomLayoutImpossibleThrows) {
  sim::Rng rng{3};
  EXPECT_THROW(random_layout(100, 10, 10, 50.0, rng), std::runtime_error);
}

TEST(Topology, ConnectivityCheck) {
  const auto chain = chain_layout(5, 100.0);
  EXPECT_TRUE(is_connected(chain, 100.0));
  EXPECT_FALSE(is_connected(chain, 99.0));
  EXPECT_TRUE(is_connected({}, 1.0));
}

TEST(Topology, ConnectedRandomLayoutIsConnected) {
  sim::Rng rng{8};
  const auto pts = connected_random_layout(20, 400, 400, 10.0, 150.0, rng);
  EXPECT_TRUE(is_connected(pts, 150.0));
}

TEST(Topology, AdjacencySymmetric) {
  sim::Rng rng{9};
  const auto pts = random_layout(15, 300, 300, 5.0, rng);
  const auto adj = adjacency(pts, 120.0);
  for (std::size_t i = 0; i < adj.size(); ++i)
    for (auto j : adj[i])
      EXPECT_NE(std::find(adj[j].begin(), adj[j].end(), i), adj[j].end());
}

// Property sweep over grid sizes: a grid with spacing <= range is connected.
class GridConnectivity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GridConnectivity, SpacingWithinRangeConnects) {
  const auto g = grid_layout(GetParam(), 100.0);
  EXPECT_TRUE(is_connected(g, 100.0));
  if (GetParam() > 1) {
    EXPECT_FALSE(is_connected(g, 50.0));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GridConnectivity,
                         ::testing::Values(1, 2, 4, 9, 16, 25, 49));

}  // namespace
}  // namespace manet::net
