// Pins the detector's autonomous scan path end to end: six scan-driven
// scenarios, each digested over its verdict and trust CSVs. Between them
// they raise every kind of scan round — HELLO-claim and HELLO-omission
// contradictions (Expressions 1-3), broadcast storms, E2 drops of our own
// TCs, E1 MPR additions and the periodic MPR audit — none of which the
// golden fixtures or the benchmark digests reach (they investigate by
// claim or raise only forwarding-audit rounds).
//
// A digest moves only when the scan's rounds move; regenerate it only for
// an intentional change to what the scan triggers on, and say why.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "attacks/drop.hpp"
#include "attacks/forge.hpp"
#include "attacks/link_spoofing.hpp"
#include "byte_digest.hpp"
#include "net/mobility.hpp"
#include "net/topology.hpp"
#include "scenario/network.hpp"

namespace manet::core {
namespace {

using scenario::Network;

/// Rounds of one run, classed by the trigger that raised them.
struct Census {
  std::size_t claims = 0;     ///< HELLO contradiction, claimed up
  std::size_t omissions = 0;  ///< HELLO contradiction, claimed down
  std::size_t storms = 0;
  std::size_t drops = 0;  ///< E2 without a signature tag: our TC unechoed
  std::size_t e1 = 0;
  std::size_t periodic = 0;
};

bool has(const DetectionReport& r, EvidenceTag tag) {
  for (const auto t : r.tags)
    if (t == tag) return true;
  return false;
}

Census census(const Detector& detector) {
  Census c;
  for (const auto& r : detector.reports()) {
    const bool sig = has(r, EvidenceTag::kSignatureMatch);
    const bool e2 = has(r, EvidenceTag::kE2MprMisbehaving);
    if (sig && e2)
      ++c.storms;
    else if (sig)
      ++(r.claimed_up ? c.claims : c.omissions);
    else if (e2)
      ++c.drops;
    if (has(r, EvidenceTag::kE1MprReplaced)) ++c.e1;
    if (has(r, EvidenceTag::kPeriodicCheck)) ++c.periodic;
  }
  return c;
}

std::uint64_t digest(const Detector& detector) {
  const std::string text =
      verdict_csv(detector.reports()) + trust_csv(detector.trust_store());
  return test_digest::fnv1a64({text.begin(), text.end()});
}

Network::Config grid_config(std::size_t n, std::uint64_t seed = 7) {
  Network::Config c;
  c.seed = seed;
  c.radio.range_m = 160.0;
  c.positions = net::grid_layout(n, 100.0);
  return c;
}

sim::Duration secs(double s) { return sim::Duration::from_seconds(s); }

TEST(ScanTriggers, PhantomSpoofOnTheNineNodeGrid) {
  // examples/quickstart: the grid center advertises a phantom neighbor.
  Network net{grid_config(9)};
  net.set_hooks(4, std::make_unique<attacks::LinkSpoofingAttack>(
                       attacks::LinkSpoofingAttack::Mode::kAddNonExistent,
                       std::set<NodeId>{NodeId{77}}));
  auto& detector = net.add_detector(0);
  net.start_all();
  net.run_for(secs(20.0));
  detector.start();
  net.run_for(secs(60.0));

  const auto c = census(detector);
  EXPECT_GT(c.e1, 0u);
  EXPECT_GT(c.periodic, 0u);
  EXPECT_EQ(digest(detector), 12734227637229851401ull);
}

TEST(ScanTriggers, ExistingNodeSpoofOnTheSixteenNodeGrid) {
  // n5 claims the real but distant n15; n10 hears both HELLOs.
  Network net{grid_config(16)};
  net.set_hooks(5, std::make_unique<attacks::LinkSpoofingAttack>(
                       attacks::LinkSpoofingAttack::Mode::kAddExisting,
                       std::set<NodeId>{Network::id_of(15)}));
  DetectorConfig dc;
  dc.suspect_cooldown = secs(5.0);
  auto& detector = net.add_detector(10, dc);
  net.start_all();
  net.run_for(secs(25.0));
  detector.start();
  net.run_for(secs(150.0));

  const auto c = census(detector);
  EXPECT_GT(c.claims, 0u);
  EXPECT_GT(c.omissions, 0u);
  EXPECT_EQ(digest(detector), 11116772301599208390ull);
}

TEST(ScanTriggers, LinkOmission) {
  // n4 drops its real neighbor n1 from its HELLOs while n1 still claims
  // the link: a transient contradiction only the scan sees.
  Network net{grid_config(9)};
  auto spoof = std::make_unique<attacks::LinkSpoofingAttack>(
      attacks::LinkSpoofingAttack::Mode::kOmitNeighbor,
      std::set<NodeId>{Network::id_of(1)});
  auto* spoof_ptr = spoof.get();
  spoof_ptr->set_active(false);
  net.set_hooks(4, std::move(spoof));
  DetectorConfig dc;
  dc.scan_interval = secs(2.0);
  auto& detector = net.add_detector(0, dc);
  net.start_all();
  net.run_for(secs(20.0));
  detector.start();
  net.run_for(secs(2.0));
  spoof_ptr->set_active(true);
  net.run_for(secs(30.0));

  EXPECT_GT(census(detector).omissions, 0u);
  EXPECT_EQ(digest(detector), 4561545107760784580ull);
}

TEST(ScanTriggers, StormWithBurstTen) {
  Network net{grid_config(9)};
  attacks::StormAttack::Config sc;
  sc.messages_per_tick = 15;
  sc.advertised = {NodeId{50}};
  auto storm = std::make_unique<attacks::StormAttack>(sc);
  auto* storm_ptr = storm.get();
  net.set_hooks(4, std::move(storm));
  DetectorConfig dc;
  dc.storm_burst = 10;
  auto& detector = net.add_detector(0, dc);
  net.start_all();
  storm_ptr->bind(net.agent(4));
  net.run_for(secs(15.0));
  detector.start();
  net.run_for(secs(30.0));

  EXPECT_GT(census(detector).storms, 0u);
  EXPECT_EQ(digest(detector), 16646185317414426728ull);
}

TEST(ScanTriggers, BlackholeChain) {
  // examples/blackhole_demo: n2 bridges the chain and drops every flood
  // once the detector at n1 runs, so n1's own TCs go unechoed.
  Network::Config cfg;
  cfg.seed = 5;
  cfg.radio.range_m = 120.0;
  cfg.positions = net::chain_layout(5, 100.0);
  Network net{cfg};
  auto drop = std::make_unique<attacks::DropAttack>(sim::Rng{1}, 1.0);
  auto* drop_ptr = drop.get();
  drop_ptr->set_active(false);
  net.set_hooks(2, std::move(drop));
  auto& detector = net.add_detector(1);
  net.start_all();
  net.run_for(secs(30.0));
  detector.start();
  drop_ptr->set_active(true);
  net.run_for(secs(60.0));

  EXPECT_GT(census(detector).drops, 0u);
  EXPECT_EQ(digest(detector), 17399410009556671958ull);
}

TEST(ScanTriggers, Mobility) {
  // examples/mobility_scenario: random waypoint under a phantom spoof.
  Network::Config cfg;
  cfg.seed = 13;
  cfg.radio.range_m = 220.0;
  cfg.positions = net::grid_layout(12, 90.0);
  Network net{cfg};
  net.set_hooks(6, std::make_unique<attacks::LinkSpoofingAttack>(
                       attacks::LinkSpoofingAttack::Mode::kAddNonExistent,
                       std::set<NodeId>{NodeId{404}}));
  net::RandomWaypoint::Config mc;
  mc.area_width = 3 * 90.0;
  mc.area_height = 4 * 90.0;
  mc.speed_min_mps = 0.5;
  mc.speed_max_mps = 2.0;
  for (std::size_t i = 0; i < 12; ++i)
    net.set_mobility(i, std::make_unique<net::RandomWaypoint>(
                            net.medium().position(Network::id_of(i)), mc));
  auto& detector = net.add_detector(0);
  net.start_all();
  net.run_for(secs(25.0));
  detector.start();
  net.run_for(secs(120.0));

  const auto c = census(detector);
  EXPECT_GT(c.claims, 0u);
  EXPECT_GT(c.omissions, 0u);
  EXPECT_EQ(digest(detector), 2661576812721926309ull);
}

}  // namespace
}  // namespace manet::core
