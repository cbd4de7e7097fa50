// End-to-end tests for the Detector: Expression 4 logic over real audit
// logs, all three link-spoofing variants, drop (E2) detection, false-
// positive behaviour on clean networks, and trust dynamics.

#include <gtest/gtest.h>

#include "attacks/drop.hpp"
#include "attacks/forge.hpp"
#include "attacks/link_spoofing.hpp"
#include "net/topology.hpp"
#include "scenario/network.hpp"

namespace manet::core {
namespace {

using scenario::Network;

Network::Config grid_config(std::size_t n, std::uint64_t seed = 7) {
  Network::Config c;
  c.seed = seed;
  c.radio.range_m = 160.0;
  c.positions = net::grid_layout(n, 100.0);
  return c;
}

std::size_t intruder_reports_against(const Detector& d, NodeId suspect) {
  std::size_t count = 0;
  for (const auto& r : d.reports())
    if (r.verdict == trust::Verdict::kIntruder && r.suspect == suspect)
      ++count;
  return count;
}

TEST(Detector, DetectsPhantomLinkSpoofing) {
  Network net{grid_config(9)};
  const NodeId phantom{77};
  net.set_hooks(4, std::make_unique<attacks::LinkSpoofingAttack>(
                       attacks::LinkSpoofingAttack::Mode::kAddNonExistent,
                       std::set<NodeId>{phantom}));
  auto& detector = net.add_detector(0);
  net.start_all();
  net.run_for(sim::Duration::from_seconds(20.0));
  detector.start();
  net.run_for(sim::Duration::from_seconds(70.0));

  EXPECT_GT(intruder_reports_against(detector, Network::id_of(4)), 0u);
  // The confirmed report carries the E5 tag (advertises a non-neighbor).
  bool saw_e5 = false;
  for (const auto& r : detector.reports())
    for (auto tag : r.tags)
      if (tag == EvidenceTag::kE5AdvertisesNonNeighbor) saw_e5 = true;
  EXPECT_TRUE(saw_e5);
  // Trust in the attacker collapses below the default.
  EXPECT_LT(detector.trust_store().trust(Network::id_of(4)), 0.2);
}

TEST(Detector, CleanNetworkProducesNoIntruderVerdicts) {
  Network net{grid_config(9)};
  auto& detector = net.add_detector(0);
  net.start_all();
  net.run_for(sim::Duration::from_seconds(20.0));
  detector.start();
  net.run_for(sim::Duration::from_seconds(60.0));
  for (const auto& r : detector.reports())
    EXPECT_NE(r.verdict, trust::Verdict::kIntruder)
        << "false positive against " << r.suspect.to_string();
}

TEST(Detector, DetectsExistingNodeSpoofing) {
  // Expression 2: in a 4x4 grid the attacker n5 claims a symmetric link to
  // the real-but-distant n15. The detection is distributed: the
  // contradiction is visible at nodes hearing BOTH HELLOs (n5's claims
  // n15, n15's omits n5) — n10 is adjacent to both.
  Network::Config c = grid_config(16);
  Network net16{c};
  net16.set_hooks(5, std::make_unique<attacks::LinkSpoofingAttack>(
                         attacks::LinkSpoofingAttack::Mode::kAddExisting,
                         std::set<NodeId>{Network::id_of(15)}));
  DetectorConfig dc;
  dc.suspect_cooldown = sim::Duration::from_seconds(5.0);
  auto& detector = net16.add_detector(10, dc);
  net16.start_all();
  net16.run_for(sim::Duration::from_seconds(25.0));
  detector.start();
  net16.run_for(sim::Duration::from_seconds(150.0));
  EXPECT_GT(intruder_reports_against(detector, Network::id_of(5)), 0u);
}

TEST(Detector, DetectsLinkOmission) {
  // Expression 3: n4 omits its real neighbor n1 from HELLOs while n1 keeps
  // claiming the link. OLSR's bidirectionality check makes the omission
  // self-concealing within NEIGHB_HOLD (~6 s): n1 stops claiming once its
  // sym timer expires. Detection is therefore transient by nature; the
  // autonomous scan must notice the contradiction, and an investigation
  // launched inside the window must convict with E4.
  Network net{grid_config(9)};
  auto spoof = std::make_unique<attacks::LinkSpoofingAttack>(
      attacks::LinkSpoofingAttack::Mode::kOmitNeighbor,
      std::set<NodeId>{Network::id_of(1)});
  auto* spoof_ptr = spoof.get();
  spoof_ptr->set_active(false);
  net.set_hooks(4, std::move(spoof));
  DetectorConfig dc;
  dc.scan_interval = sim::Duration::from_seconds(2.0);
  auto& detector = net.add_detector(0, dc);
  net.start_all();
  net.run_for(sim::Duration::from_seconds(20.0));
  detector.start();
  net.run_for(sim::Duration::from_seconds(2.0));
  spoof_ptr->set_active(true);  // the transient contradiction window opens
  net.run_for(sim::Duration::from_seconds(1.5));

  // Inside the window: a direct investigation of the omitted link convicts
  // the omitter with E4 (the verifiers still see n1 claiming the link and
  // n1 itself answers first-hand).
  // Two rounds: the subject's consistent first-hand denial gives a
  // zero-spread pool, collapsing the Eq. 9 margin.
  for (int round = 0; round < 2; ++round) {
    detector.investigate_claim(
        Network::id_of(4), Network::id_of(1), /*claimed_up=*/false, {},
        {Network::id_of(1), Network::id_of(2), Network::id_of(3),
         Network::id_of(5)});
    net.run_for(sim::Duration::from_seconds(1.5));
  }

  bool saw_e4 = false;
  for (const auto& r : detector.reports()) {
    if (r.verdict == trust::Verdict::kIntruder &&
        r.suspect == Network::id_of(4) && !r.claimed_up) {
      for (auto tag : r.tags)
        if (tag == EvidenceTag::kE4NotCoveringNeighbor) saw_e4 = true;
    }
  }
  EXPECT_TRUE(saw_e4);

  // The autonomous scan also noticed the omission on its own.
  net.run_for(sim::Duration::from_seconds(30.0));
  bool scan_noticed = false;
  for (const auto& r : detector.reports())
    if (r.suspect == Network::id_of(4) && r.subject == Network::id_of(1) &&
        !r.claimed_up)
      scan_noticed = true;
  EXPECT_TRUE(scan_noticed);
  // ...and the honest far end n1 is never convicted.
  EXPECT_EQ(intruder_reports_against(detector, Network::id_of(1)), 0u);
}

TEST(Detector, FindDisputedLinksFlagsPhantomOnly) {
  Network net{grid_config(9)};
  const NodeId phantom{77};
  net.set_hooks(4, std::make_unique<attacks::LinkSpoofingAttack>(
                       attacks::LinkSpoofingAttack::Mode::kAddNonExistent,
                       std::set<NodeId>{phantom}));
  auto& detector = net.add_detector(8);  // corner opposite: hears n4 too
  net.start_all();
  net.run_for(sim::Duration::from_seconds(30.0));

  const auto disputed = detector.find_disputed_links(Network::id_of(4), 10);
  EXPECT_NE(std::find(disputed.begin(), disputed.end(), phantom),
            disputed.end());
  // Genuine neighbors that n8 can corroborate (e.g. n5, n7 — its own
  // neighbors) must not be disputed.
  EXPECT_EQ(std::find(disputed.begin(), disputed.end(), Network::id_of(5)),
            disputed.end());
  EXPECT_EQ(std::find(disputed.begin(), disputed.end(), Network::id_of(7)),
            disputed.end());
}

TEST(Detector, BelievedNeighborsFromLog) {
  Network net{grid_config(9)};
  auto& detector = net.add_detector(0);
  net.start_all();
  net.run_for(sim::Duration::from_seconds(20.0));
  // n4 is adjacent to everyone in a 3x3 grid; n0's believed list for n4
  // must contain n0's own neighbors that advertise n4.
  const auto believed = detector.believed_neighbors_of(Network::id_of(4));
  EXPECT_NE(std::find(believed.begin(), believed.end(), Network::id_of(1)),
            believed.end());
  EXPECT_NE(std::find(believed.begin(), believed.end(), Network::id_of(3)),
            believed.end());
  // Never the investigator or the suspect itself.
  EXPECT_EQ(std::find(believed.begin(), believed.end(), Network::id_of(0)),
            believed.end());
  EXPECT_EQ(std::find(believed.begin(), believed.end(), Network::id_of(4)),
            believed.end());
}

TEST(Detector, ScanOnceIsIncremental) {
  Network net{grid_config(9)};
  auto& detector = net.add_detector(0);
  net.start_all();
  net.run_for(sim::Duration::from_seconds(20.0));
  detector.scan_once();
  // Immediately rescanning with no new log growth finds nothing new.
  EXPECT_EQ(detector.scan_once(), 0u);
}

TEST(Detector, StormTriggersInvestigation) {
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
  net.run_for(sim::Duration::from_seconds(15.0));
  detector.start();
  net.run_for(sim::Duration::from_seconds(30.0));

  bool investigated_storm = false;
  for (const auto& r : detector.reports())
    for (auto tag : r.tags)
      if (tag == EvidenceTag::kE2MprMisbehaving) investigated_storm = true;
  EXPECT_TRUE(investigated_storm);
}

TEST(Detector, TrustOfHonestVerifiersGrows) {
  Network net{grid_config(9)};
  const NodeId phantom{77};
  net.set_hooks(4, std::make_unique<attacks::LinkSpoofingAttack>(
                       attacks::LinkSpoofingAttack::Mode::kAddNonExistent,
                       std::set<NodeId>{phantom}));
  auto& detector = net.add_detector(0);
  net.start_all();
  net.run_for(sim::Duration::from_seconds(20.0));
  const double before = detector.trust_store().trust(Network::id_of(1));
  detector.start();
  net.run_for(sim::Duration::from_seconds(70.0));
  EXPECT_GT(detector.trust_store().trust(Network::id_of(1)), before);
}

TEST(Detector, ReportsCarryCumulativeEvidence) {
  Network net{grid_config(9)};
  const NodeId phantom{77};
  net.set_hooks(4, std::make_unique<attacks::LinkSpoofingAttack>(
                       attacks::LinkSpoofingAttack::Mode::kAddNonExistent,
                       std::set<NodeId>{phantom}));
  auto& detector = net.add_detector(0);
  net.start_all();
  net.run_for(sim::Duration::from_seconds(20.0));
  detector.start();
  net.run_for(sim::Duration::from_seconds(70.0));

  std::size_t prev_cumulative = 0;
  for (const auto& r : detector.reports()) {
    if (r.subject != phantom) continue;
    EXPECT_GE(r.cumulative_answers, prev_cumulative);
    prev_cumulative = r.cumulative_answers;
    // The margin shrinks as evidence accumulates (Eq. 9: eps ~ 1/sqrt(n)).
    EXPECT_GT(r.cumulative_answers, 0u);
  }
  EXPECT_GT(prev_cumulative, 8u);  // several rounds accumulated
}

}  // namespace
}  // namespace manet::core
