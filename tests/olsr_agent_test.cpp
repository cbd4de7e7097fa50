// Integration tests for the OLSR agent: link sensing through real HELLO
// exchange, MPR selection/flooding, TC-driven routing convergence, data
// plane, audit-log contents.

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "logging/format.hpp"
#include "net/topology.hpp"
#include "scenario/network.hpp"

namespace manet::olsr {
namespace {

using scenario::Network;

Network::Config chain_config(std::size_t n, std::uint64_t seed = 1) {
  Network::Config c;
  c.seed = seed;
  c.radio.range_m = 120.0;
  c.positions = net::chain_layout(n, 100.0);
  return c;
}

Network::Config grid_config(std::size_t n, std::uint64_t seed = 1) {
  Network::Config c;
  c.seed = seed;
  c.radio.range_m = 160.0;
  c.positions = net::grid_layout(n, 100.0);
  return c;
}

TEST(Agent, TwoNodesBecomeSymmetric) {
  Network net{chain_config(2)};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(6.0));
  EXPECT_TRUE(net.agent(0).is_symmetric_neighbor(Network::id_of(1)));
  EXPECT_TRUE(net.agent(1).is_symmetric_neighbor(Network::id_of(0)));
}

TEST(Agent, OutOfRangeNodesNeverLink) {
  Network::Config c;
  c.radio.range_m = 50.0;
  c.positions = {{0, 0}, {500, 0}};
  Network net{c};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(10.0));
  EXPECT_FALSE(net.agent(0).is_symmetric_neighbor(Network::id_of(1)));
}

TEST(Agent, ChainConvergesToMultiHopRoutes) {
  Network net{chain_config(5)};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(30.0));
  ASSERT_TRUE(net.converged());
  const auto route = net.agent(0).routes().route_to(Network::id_of(4));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->distance, 4);
  EXPECT_EQ(route->next_hop, Network::id_of(1));
}

TEST(Agent, ChainMiddleNodesAreMprs) {
  Network net{chain_config(3)};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(20.0));
  // n1 must be the MPR of both ends (sole provider of the other end).
  EXPECT_TRUE(net.agent(0).is_mpr(Network::id_of(1)));
  EXPECT_TRUE(net.agent(2).is_mpr(Network::id_of(1)));
  // ...and n1 must know it was selected.
  const auto selectors = net.agent(1).mpr_selectors();
  EXPECT_EQ(selectors.size(), 2u);
}

TEST(Agent, MprCoversAllTwoHops) {
  Network net{grid_config(9)};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(30.0));
  for (std::size_t i = 0; i < 9; ++i) {
    const auto& agent = net.agent(i);
    // Every strict 2-hop node (each node a reach row lists) must be
    // reachable through some selected MPR.
    std::set<NodeId> strict;
    for (const auto& [via, nodes] : agent.neighbors().reachability(agent.id()))
      strict.insert(nodes.begin(), nodes.end());
    std::set<NodeId> covered;
    for (auto mpr : agent.mpr_set()) {
      const auto via = agent.neighbors().two_hops_via(mpr);
      covered.insert(via.begin(), via.end());
    }
    for (auto th : strict)
      EXPECT_TRUE(covered.contains(th))
          << "node " << i << " 2-hop " << th.to_string() << " uncovered";
  }
}

// Restoring the protocol scalars replaces the MPR set behind the
// heuristic's back: the next look must re-run it even though its inputs
// (N and the reach rows) did not move.
TEST(Agent, RestoredScalarsForceMprReselection) {
  Network net{chain_config(3)};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(20.0));
  auto& agent = net.agent(0);
  const auto selected = agent.mpr_set();
  ASSERT_EQ(selected, (std::vector<NodeId>{Network::id_of(1)}));
  auto scalars = agent.protocol_scalars();
  scalars.mprs.clear();
  scalars.mprs_dirty = true;
  agent.restore_protocol_scalars(scalars);
  net.run_for(sim::Duration::from_seconds(1.0));
  EXPECT_EQ(agent.mpr_set(), selected);
}

TEST(Agent, TcFloodingBuildsTopology) {
  Network net{chain_config(4)};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(30.0));
  // n0 must have learned, via flooded TCs, an edge involving n2<->n3.
  const auto tuples = net.agent(0).topology().tuples();
  const bool knows_far_edge =
      std::any_of(tuples.begin(), tuples.end(), [](const TopologyTuple& t) {
        return (t.last_hop == Network::id_of(2) &&
                t.dest == Network::id_of(3)) ||
               (t.last_hop == Network::id_of(3) && t.dest == Network::id_of(2));
      });
  EXPECT_TRUE(knows_far_edge);
}

TEST(Agent, LinkLossDetectedAfterNodeDies) {
  Network net{chain_config(3)};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(15.0));
  ASSERT_TRUE(net.agent(0).is_symmetric_neighbor(Network::id_of(1)));
  net.agent(1).stop();
  // Link times out after NEIGHB_HOLD (6 s); stale TC tuples must not keep
  // the route alive through a dead first hop.
  net.run_for(sim::Duration::from_seconds(10.0));
  EXPECT_FALSE(net.agent(0).is_symmetric_neighbor(Network::id_of(1)));
  EXPECT_FALSE(net.agent(0).routes().route_to(Network::id_of(2)).has_value());
}

TEST(Agent, DataPlaneDeliversAcrossChain) {
  Network net{chain_config(4)};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(30.0));
  ASSERT_TRUE(net.converged());

  NodeId got_source{};
  std::vector<std::uint8_t> got_payload;
  net.agent(3).set_data_handler([&](const DataMessage& m) {
    got_source = m.source;
    got_payload = m.payload;
    // The relay trace names the intermediate hops in order.
    EXPECT_EQ(m.trace, (std::vector<NodeId>{Network::id_of(1), Network::id_of(2)}));
  });
  const auto status =
      net.agent(0).send_data(Network::id_of(3), 7, {1, 2, 3});
  EXPECT_EQ(status, Agent::SendStatus::kSent);
  net.run_for(sim::Duration::from_seconds(2.0));
  EXPECT_EQ(got_source, Network::id_of(0));
  EXPECT_EQ(got_payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_GE(net.agent(1).stats().data_relayed, 1u);
}

TEST(Agent, DataAvoidSetForcesDetour) {
  // 2x2 grid fully meshed except the diagonal: avoid the direct neighbor.
  Network net{grid_config(4)};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(20.0));
  ASSERT_TRUE(net.converged());

  bool delivered = false;
  net.agent(3).set_data_handler(
      [&](const DataMessage&) { delivered = true; });
  // Path n0->n3 avoiding n1 must go through n2.
  const auto status = net.agent(0).send_data(Network::id_of(3), 7, {9},
                                             {Network::id_of(1)});
  EXPECT_EQ(status, Agent::SendStatus::kSent);
  net.run_for(sim::Duration::from_seconds(2.0));
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net.agent(1).stats().data_relayed, 0u);
}

TEST(Agent, NoRouteReportedWhenAvoidDisconnects) {
  Network net{chain_config(3)};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(20.0));
  const auto status = net.agent(0).send_data(Network::id_of(2), 7, {1},
                                             {Network::id_of(1)});
  EXPECT_EQ(status, Agent::SendStatus::kNoRoute);
}

TEST(Agent, AuditLogContainsProtocolEvents) {
  Network net{chain_config(3)};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(30.0));
  const auto count = [&net](std::string_view event) {
    return std::ranges::count_if(
        net.agent(0).log().records(),
        [event](const logging::LogRecord& r) { return r.event == event; });
  };
  EXPECT_GT(count("hello_sent"), 0);
  EXPECT_GT(count("hello_recv"), 0);
  EXPECT_GT(count("link_sym"), 0);
  EXPECT_GT(count("mpr_changed"), 0);
  EXPECT_GT(count("tc_recv"), 0);
  EXPECT_GT(count("routes_changed"), 0);
}

TEST(Agent, AuditLogTextRoundTrips) {
  Network net{chain_config(3)};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(20.0));
  const auto text = net.agent(1).log().text_since(sim::Time{});
  const auto parsed = logging::parse_log(text);
  EXPECT_EQ(parsed.size(), net.agent(1).log().size());
  for (const auto& rec : parsed) EXPECT_EQ(rec.node, Network::id_of(1));
}

TEST(Agent, OwnForwardHeardLogged) {
  // In a 4-chain, n1 and n2 both originate TCs (each has MPR selectors) and
  // each must retransmit the other's: n1 overhears n2 forwarding its TC.
  Network net{chain_config(4)};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(40.0));
  const auto& records = net.agent(1).log().records();
  const auto heard = std::ranges::find_if(
      records, [](const auto& r) { return r.event == "own_fwd_heard"; });
  ASSERT_NE(heard, records.end());
  EXPECT_EQ(heard->node_field("by"), Network::id_of(2));
}

TEST(Agent, MidMessagesAdvertiseExtraInterfaces) {
  Network::Config c = chain_config(2);
  c.agent.extra_interfaces = {NodeId{200}};
  Network net{c};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(20.0));
  EXPECT_EQ(net.agent(1).mid_set().main_address_of(NodeId{200}),
            Network::id_of(0));
}

TEST(Agent, HnaMessagesPropagateGateways) {
  Network::Config c = chain_config(3);
  c.agent.hna_networks = {{0x0A000000u, 8}};
  Network net{c};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(30.0));
  // Every node gateways the same network; n2 must have learned n0's HNA
  // through flooding (2 hops away).
  const auto gws = net.agent(2).hna_set().gateways_for(0x0A000000u, 8);
  EXPECT_NE(std::find(gws.begin(), gws.end(), Network::id_of(0)), gws.end());
}

TEST(Agent, WillNeverNodeNotSelectedAsMpr) {
  Network::Config c = chain_config(3);
  Network net{c};
  // Make the middle node unwilling AFTER construction is impossible (config
  // is per-network here), so instead verify the config plumbing per-agent:
  // a separate network where all nodes are WILL_NEVER must select no MPRs.
  Network::Config c2 = chain_config(3);
  c2.agent.willingness = Willingness::kNever;
  Network net2{c2};
  net2.start_all();
  net2.run_for(sim::Duration::from_seconds(30.0));
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_TRUE(net2.agent(i).mpr_set().empty());
}

TEST(Agent, StatsCountTraffic) {
  Network net{chain_config(4)};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(30.0));
  const auto& s = net.agent(2).stats();
  EXPECT_GT(s.hello_sent, 10u);
  EXPECT_GT(s.hello_recv, 20u);     // two neighbors
  EXPECT_GT(s.msgs_forwarded, 0u);  // n2 floods n1's TCs toward n3
  EXPECT_EQ(s.parse_errors, 0u);
}

// Property sweep: convergence holds across seeds and packet-loss levels.
struct ConvergenceParam {
  std::uint64_t seed;
  double loss;
};

class AgentConvergence : public ::testing::TestWithParam<ConvergenceParam> {};

TEST_P(AgentConvergence, GridConverges) {
  Network::Config c = grid_config(9, GetParam().seed);
  c.radio.loss_probability = GetParam().loss;
  Network net{c};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(60.0));
  EXPECT_TRUE(net.converged())
      << "seed=" << GetParam().seed << " loss=" << GetParam().loss;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndLoss, AgentConvergence,
    ::testing::Values(ConvergenceParam{1, 0.0}, ConvergenceParam{2, 0.0},
                      ConvergenceParam{3, 0.05}, ConvergenceParam{4, 0.10},
                      ConvergenceParam{5, 0.20}));

}  // namespace
}  // namespace manet::olsr
