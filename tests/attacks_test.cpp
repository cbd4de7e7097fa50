// Tests for the attack library: each misbehaviour measurably perverts the
// protocol state of well-behaving nodes, which is exactly what the IDS
// later has to detect.

#include <gtest/gtest.h>

#include <algorithm>

#include "attacks/composite.hpp"
#include "attacks/drop.hpp"
#include "attacks/forge.hpp"
#include "attacks/link_spoofing.hpp"
#include "attacks/wormhole.hpp"
#include "net/topology.hpp"
#include "scenario/network.hpp"

namespace manet::attacks {
namespace {

using olsr::NodeId;
using scenario::Network;

Network::Config chain_config(std::size_t n, std::uint64_t seed = 1) {
  Network::Config c;
  c.seed = seed;
  c.radio.range_m = 120.0;
  c.positions = net::chain_layout(n, 100.0);
  return c;
}

TEST(LinkSpoofing, AddNonExistentMutatesHello) {
  LinkSpoofingAttack attack{LinkSpoofingAttack::Mode::kAddNonExistent,
                            {NodeId{99}}};
  olsr::HelloMessage h;
  h.add(olsr::LinkType::kSym, olsr::NeighborType::kSymNeigh, NodeId{1});
  attack.on_build_hello(h);
  const auto sym = h.symmetric_neighbors();
  EXPECT_NE(std::find(sym.begin(), sym.end(), NodeId{99}), sym.end());
  EXPECT_EQ(attack.forged_count(), 1u);
}

TEST(LinkSpoofing, OmitRemovesNeighbor) {
  LinkSpoofingAttack attack{LinkSpoofingAttack::Mode::kOmitNeighbor,
                            {NodeId{1}}};
  olsr::HelloMessage h;
  h.add(olsr::LinkType::kSym, olsr::NeighborType::kSymNeigh, NodeId{1});
  h.add(olsr::LinkType::kSym, olsr::NeighborType::kSymNeigh, NodeId{2});
  attack.on_build_hello(h);
  const auto sym = h.symmetric_neighbors();
  EXPECT_EQ(sym, (std::vector<NodeId>{NodeId{2}}));
}

TEST(LinkSpoofing, InactiveAttackIsNoop) {
  LinkSpoofingAttack attack{LinkSpoofingAttack::Mode::kAddNonExistent,
                            {NodeId{99}}};
  attack.set_active(false);
  olsr::HelloMessage h;
  attack.on_build_hello(h);
  EXPECT_TRUE(h.symmetric_neighbors().empty());
  EXPECT_EQ(attack.forged_count(), 0u);
}

TEST(LinkSpoofing, PhantomNeighborPropagatesIntoVictimTables) {
  // End-to-end: the victim's 2-hop table ends up containing the phantom —
  // the corruption of "the topology seen by S" from the paper's §III-A.
  Network net{chain_config(2)};
  const NodeId phantom{99};
  net.set_hooks(1, std::make_unique<LinkSpoofingAttack>(
                       LinkSpoofingAttack::Mode::kAddNonExistent,
                       std::set<NodeId>{phantom}));
  net.start_all();
  net.run_for(sim::Duration::from_seconds(15.0));
  const auto two_hops = net.agent(0).neighbors().two_hops_via(Network::id_of(1));
  EXPECT_TRUE(std::binary_search(two_hops.begin(), two_hops.end(), phantom));
  // ...and forces the attacker into the victim's MPR set (Expression 1).
  EXPECT_TRUE(net.agent(0).is_mpr(Network::id_of(1)));
}

TEST(Drop, BlackholePreventsFloodingAcrossRelay) {
  // Chain n0-n1-n2-n3 where n2 blackholes: n1-originated TCs flooded via n2
  // never reach n3, so n3 cannot learn the n0-n1 edge.
  Network net{chain_config(4)};
  net.set_hooks(2, std::make_unique<DropAttack>(sim::Rng{1}, 1.0));
  net.start_all();
  net.run_for(sim::Duration::from_seconds(40.0));
  const auto tuples = net.agent(3).topology().tuples();
  const bool knows_far_edge =
      std::any_of(tuples.begin(), tuples.end(), [](const auto& t) {
        return t.last_hop == Network::id_of(1) &&
               std::set<NodeId>{Network::id_of(0), Network::id_of(2)}.contains(
                   t.dest);
      });
  EXPECT_FALSE(knows_far_edge);
  EXPECT_FALSE(net.agent(3).routes().route_to(Network::id_of(0)).has_value());
}

TEST(Drop, GrayholeDropsFraction) {
  DropAttack gray{sim::Rng{7}, 0.5};
  olsr::Message m;
  int forwarded = 0;
  const int total = 2000;
  for (int i = 0; i < total; ++i)
    if (gray.should_forward(m)) ++forwarded;
  EXPECT_NEAR(static_cast<double>(forwarded) / total, 0.5, 0.05);
  EXPECT_EQ(gray.dropped_control() + static_cast<std::uint64_t>(forwarded),
            static_cast<std::uint64_t>(total));
}

TEST(Drop, DataDroppingStarvesDelivery) {
  Network net{chain_config(3)};
  net.set_hooks(1, std::make_unique<DropAttack>(sim::Rng{1}, 1.0,
                                                /*drop_control=*/false,
                                                /*drop_data=*/true));
  net.start_all();
  net.run_for(sim::Duration::from_seconds(20.0));
  bool delivered = false;
  net.agent(2).set_data_handler(
      [&](const olsr::DataMessage&) { delivered = true; });
  net.agent(0).send_data(Network::id_of(2), 7, {1});
  net.run_for(sim::Duration::from_seconds(3.0));
  EXPECT_FALSE(delivered);
}

TEST(Storm, FloodsForgedTcs) {
  Network net{chain_config(2)};
  StormAttack::Config sc;
  sc.messages_per_tick = 5;
  sc.advertised = {NodeId{50}, NodeId{51}};
  auto storm = std::make_unique<StormAttack>(sc);
  auto* storm_ptr = storm.get();
  net.set_hooks(1, std::move(storm));
  net.start_all();
  storm_ptr->bind(net.agent(1));
  net.run_for(sim::Duration::from_seconds(10.0));
  EXPECT_GE(storm_ptr->forged_count(), 20u);
  // The victim's log shows the burst of TC receptions.
  EXPECT_GT(std::ranges::count_if(
                net.agent(0).log().records(),
                [](const auto& r) {
                  return r.event() == logging::Event::kTcRecv;
                }),
            15);
}

TEST(IdentitySpoofing, VictimIdentityMasqueraded) {
  Network net{chain_config(2)};
  auto spoof = std::make_unique<IdentitySpoofingAttack>(
      NodeId{7}, std::vector<NodeId>{NodeId{0}});
  auto* ptr = spoof.get();
  net.set_hooks(1, std::move(spoof));
  net.start_all();
  ptr->bind(net.agent(1));
  net.run_for(sim::Duration::from_seconds(10.0));
  EXPECT_GT(ptr->forged_count(), 0u);
  // n0 believes it heard HELLOs from the non-attached identity n7.
  EXPECT_GT(std::ranges::count_if(net.agent(0).log().records(),
                                  [](const auto& r) {
                                    return r.event() ==
                                               logging::Event::kHelloRecv &&
                                           r.id(logging::Key::kFrom) ==
                                               NodeId{7};
                                  }),
            0);
}

TEST(SequenceInflation, InflatesRelayedTcs) {
  SequenceInflationAttack attack{100};
  olsr::Message m;
  m.header.type = olsr::MessageType::kTc;
  m.header.seq_num = 10;
  m.body = olsr::TcMessage{5, {}};
  attack.on_forward(m);
  EXPECT_EQ(m.header.seq_num, 110);
  EXPECT_EQ(std::get<olsr::TcMessage>(m.body).ansn, 105);
  EXPECT_EQ(attack.tampered_count(), 1u);
  // Non-TC messages untouched.
  olsr::Message hello;
  hello.header.type = olsr::MessageType::kHello;
  hello.header.seq_num = 3;
  hello.body = olsr::HelloMessage{};
  attack.on_forward(hello);
  EXPECT_EQ(hello.header.seq_num, 3);
}

TEST(Willingness, ForcedAlwaysWinsMprSelection) {
  WillingnessAttack attack{olsr::Willingness::kAlways};
  olsr::HelloMessage h;
  h.willingness = olsr::Willingness::kDefault;
  attack.on_build_hello(h);
  EXPECT_EQ(h.willingness, olsr::Willingness::kAlways);
}

TEST(Wormhole, ReplaysCapturedTrafficAtRemoteEnd) {
  // Two disjoint 2-node islands; the wormhole tunnels n0's TC traffic from
  // island A (captured by n1) to island B (replayed by n2).
  Network::Config c;
  c.radio.range_m = 120.0;
  c.positions = {{0, 0}, {100, 0}, {1000, 0}, {1100, 0}};
  Network net{c};

  auto channel =
      std::make_shared<WormholeChannel>(sim::Duration::from_ms(50));
  auto capture = std::make_unique<WormholeEndpoint>(
      net.sim(), channel, WormholeEndpoint::Role::kCapture);
  auto replay = std::make_unique<WormholeEndpoint>(
      net.sim(), channel, WormholeEndpoint::Role::kReplay);
  auto* capture_ptr = capture.get();
  auto* replay_ptr = replay.get();
  net.set_hooks(1, std::move(capture));
  net.set_hooks(2, std::move(replay));
  net.start_all();
  capture_ptr->bind(net.agent(1));
  replay_ptr->bind(net.agent(2));
  net.run_for(sim::Duration::from_seconds(30.0));

  EXPECT_GT(capture_ptr->captured_count(), 0u);
  EXPECT_GT(replay_ptr->replayed_count(), 0u);
  // n3 (island B) hears displaced HELLOs originated by island-A nodes.
  EXPECT_GT(std::ranges::count_if(
                net.agent(3).log().records(),
                [](const auto& r) {
                  return r.event() == logging::Event::kHelloRecv &&
                         (r.id(logging::Key::kFrom) == Network::id_of(0) ||
                          r.id(logging::Key::kFrom) == Network::id_of(1));
                }),
            0);
}

TEST(Composite, ChainsSpoofingAndDropping) {
  CompositeHooks composite;
  LinkSpoofingAttack spoof{LinkSpoofingAttack::Mode::kAddNonExistent,
                           {NodeId{99}}};
  DropAttack drop{sim::Rng{1}, 1.0};
  composite.add(spoof);
  composite.add(drop);

  olsr::HelloMessage h;
  composite.on_build_hello(h);
  EXPECT_FALSE(h.symmetric_neighbors().empty());

  olsr::Message m;
  EXPECT_FALSE(composite.should_forward(m));
  olsr::DataMessage d;
  EXPECT_FALSE(composite.should_relay_data(d));
}

}  // namespace
}  // namespace manet::attacks
