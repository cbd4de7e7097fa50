// Integration tests for the OLSR agent: link sensing through real HELLO
// exchange, MPR selection/flooding, TC-driven routing convergence, data
// plane, audit-log contents.

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "logging/format.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "olsr/wire.hpp"
#include "scenario/network.hpp"
#include "sim/simulator.hpp"

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
  const auto count = [&net](logging::Event event) {
    return std::ranges::count_if(
        net.agent(0).log().records(),
        [event](const logging::RecordView& r) { return r.event() == event; });
  };
  EXPECT_GT(count(logging::Event::kHelloSent), 0);
  EXPECT_GT(count(logging::Event::kHelloRecv), 0);
  EXPECT_GT(count(logging::Event::kLinkSym), 0);
  EXPECT_GT(count(logging::Event::kMprChanged), 0);
  EXPECT_GT(count(logging::Event::kTcRecv), 0);
  EXPECT_GT(count(logging::Event::kRoutesChanged), 0);
}

TEST(Agent, AuditLogTextRoundTrips) {
  Network net{chain_config(3)};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(20.0));
  std::string text;
  for (const auto& rec : net.agent(1).log().records()) {
    text += logging::format_record(rec);
    text += '\n';
  }
  const auto parsed = logging::parse_log(text);
  EXPECT_EQ(parsed.size(), net.agent(1).log().size());
  for (const auto& rec : parsed) EXPECT_EQ(rec.node, Network::id_of(1));
  EXPECT_TRUE(std::ranges::equal(parsed, net.agent(1).log().records()));
}

TEST(Agent, OwnForwardHeardLogged) {
  // In a 4-chain, n1 and n2 both originate TCs (each has MPR selectors) and
  // each must retransmit the other's: n1 overhears n2 forwarding its TC.
  Network net{chain_config(4)};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(40.0));
  const auto& records = net.agent(1).log().records();
  const auto heard = std::ranges::find_if(
      records, [](const auto& r) {
        return r.event() == logging::Event::kOwnFwdHeard;
      });
  ASSERT_NE(heard, records.end());
  EXPECT_EQ((*heard).id(logging::Key::kBy), Network::id_of(2));
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

// A hand-driven cell: agents n0..n{count-1} listen (handlers installed,
// no timers, so they send nothing of their own) and bare hosts transmit
// crafted frames.
struct Cell {
  sim::Simulator sim{1};
  net::Medium medium{sim, net::RadioConfig{}};
  std::vector<std::unique_ptr<Agent>> agents;

  Cell(std::uint32_t count, std::initializer_list<std::uint32_t> puppets) {
    for (const auto p : puppets)
      medium.attach(NodeId{p}, net::Position{1.0 * p, 1.0});
    for (std::uint32_t i = 0; i < count; ++i) {
      medium.attach(NodeId{i}, net::Position{1.0 * i, 0.0});
      agents.push_back(
          std::make_unique<Agent>(sim, medium, NodeId{i}, Agent::Config{}));
      agents.back()->resume_running();
    }
  }
  void send(NodeId transmitter, net::Bytes bytes) {
    medium.broadcast(transmitter, std::move(bytes));
    sim.run_all();
  }
  void send(NodeId transmitter, Message m) {
    send(transmitter, serialize_packet(OlsrPacket{1, {std::move(m)}}));
  }
};

/// A HELLO from `from` that lists every agent of the cell with `type`.
Message hello_listing(NodeId from, std::uint32_t agents, NeighborType type) {
  HelloMessage h;
  h.htime = sim::Duration::from_seconds(2.0);
  for (std::uint32_t i = 0; i < agents; ++i)
    h.add(LinkType::kSym, type, NodeId{i});
  Message m;
  m.header.type = MessageType::kHello;
  m.header.vtime = sim::Duration::from_seconds(6.0);
  m.header.originator = from;
  m.header.ttl = 1;
  m.header.seq_num = 1;
  m.body = h;
  return m;
}

TEST(Agent, EachFrameIsDecodedOnceForAllReceivers) {
  obs::Context ctx;
  obs::Scope scope{&ctx};
  const auto decoded = [&ctx] {
    return ctx.snapshot().counter_value(
        obs::hot_name(obs::Hot::kFramesDecoded));
  };
  Cell cell{4, {9}};
  const NodeId puppet{9};
  cell.send(puppet, hello_listing(puppet, 4, NeighborType::kSymNeigh));
  EXPECT_EQ(decoded(), 1u);
  for (const auto& a : cell.agents) EXPECT_EQ(a->stats().hello_recv, 1u);

  // A corrupt frame is decoded (and refused) once too, yet every receiver
  // counts and logs its own parse error.
  cell.send(puppet, net::Bytes{0x00, 0x09, 0x00});
  EXPECT_EQ(decoded(), 2u);
  for (const auto& a : cell.agents) {
    EXPECT_EQ(a->stats().parse_errors, 1u);
    const auto& records = a->log().records();
    const auto errors = std::ranges::count_if(records, [&](const auto& r) {
      return r.event() == logging::Event::kPacketParseError &&
             r.id(logging::Key::kFrom) == puppet;
    });
    EXPECT_EQ(errors, 1) << "n" << a->id().value();
  }
}

// A HELLO that shortens a symmetric link's L_SYM_time flips nothing, yet
// the link now lapses earlier than the last self-edge sync expected. The
// agent must re-sync its self edges from that earlier instant on: here the
// next HELLO, after the lapse, no longer lists the agent, so it reports no
// flip either (the link was already asymmetric), and nothing but the
// lowered lapse time can take the direct route away. The cell runs no
// housekeeping.
TEST(Agent, ShorterHelloVtimeResyncsSelfEdges) {
  Cell cell{1, {1}};
  const NodeId peer{1};
  const auto& agent = *cell.agents.front();
  const auto at = [&](double s) {
    cell.sim.run_until(sim::Time::from_seconds(s));
  };
  at(0.1);
  cell.send(peer, hello_listing(peer, 1, NeighborType::kSymNeigh));  // 6 s
  ASSERT_TRUE(agent.routes().reaches(peer));

  at(1.1);
  auto shorter = hello_listing(peer, 1, NeighborType::kSymNeigh);
  shorter.header.vtime = sim::Duration::from_seconds(1.0);
  cell.send(peer, shorter);
  ASSERT_TRUE(agent.is_symmetric_neighbor(peer));
  ASSERT_TRUE(agent.routes().reaches(peer));

  at(2.5);  // past the shortened L_SYM_time, long before the first one
  ASSERT_FALSE(agent.is_symmetric_neighbor(peer));
  cell.send(peer, hello_listing(peer, 0, NeighborType::kSymNeigh));
  EXPECT_FALSE(agent.is_symmetric_neighbor(peer));
  EXPECT_FALSE(agent.routes().reaches(peer));
  EXPECT_EQ(agent.routes().size(), 0u);
}

// Pins a departure from RFC 3626 §3.4 step 4.1 (see ROADMAP.md): with one
// interface per node, a copy of a message already in the duplicate set
// arrives on an interface already in D_iface_list and SHOULD NOT be
// retransmitted. This daemon reconsiders every later copy of a message it
// did not retransmit, so a copy from an MPR selector, after a first copy
// from a non-selector, is forwarded. The RFC fix flips this test.
TEST(Agent, ReconsidersSeenCopyFromAnotherSelector) {
  Cell cell{1, {1, 2}};
  const NodeId plain{1}, selector{2}, origin{5};
  cell.send(plain, hello_listing(plain, 1, NeighborType::kSymNeigh));
  cell.send(selector, hello_listing(selector, 1, NeighborType::kMprNeigh));
  const auto& agent = *cell.agents.front();
  ASSERT_TRUE(agent.is_symmetric_neighbor(plain));
  ASSERT_EQ(agent.mpr_selectors(), std::vector<NodeId>{selector});

  Message tc;
  tc.header.type = MessageType::kTc;
  tc.header.vtime = sim::Duration::from_seconds(15.0);
  tc.header.originator = origin;
  tc.header.ttl = 8;
  tc.header.hop_count = 2;
  tc.header.seq_num = 77;
  tc.body = TcMessage{3, {NodeId{6}}};
  cell.send(plain, tc);
  EXPECT_EQ(agent.stats().tc_recv, 1u);
  EXPECT_EQ(agent.stats().msgs_forwarded, 0u);  // not from a selector
  cell.send(selector, tc);
  EXPECT_EQ(agent.stats().tc_recv, 1u);  // a duplicate: not processed again
  EXPECT_EQ(agent.stats().msgs_forwarded, 1u);  // but retransmitted
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
