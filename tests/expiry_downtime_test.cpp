// Long-downtime expiry semantics (satellite of the fault-injection PR):
// a node that crashes and stays down must age out of its peers' OLSR
// state (link set, neighbor table, routing table) once the hold times
// expire, its trust at the investigator must keep decaying instead of
// freezing at the pre-crash value, and after a restart the same NodeId
// must be re-learned from scratch and routed to again.

#include <gtest/gtest.h>

#include "faults/fault_plan.hpp"
#include "scenario/trust_experiment.hpp"

namespace manet::scenario {
namespace {

constexpr std::uint32_t kVictim = 5;

TrustExperiment::Config downtime_config() {
  TrustExperiment::Config c;
  c.seed = 17;
  c.num_nodes = 16;
  c.num_liars = 4;
  // Node 5 is down from t=20 s to t=43 s — far beyond every OLSR hold
  // time (links ~6 s, TC topology ~15 s), then comes back with its state
  // intact (the amnesia variant is exercised by the chaos sweeps).
  c.fault_plan = faults::FaultPlan::parse(
      "20000 crash n5\n"
      "43000 restart n5\n");
  return c;
}

TEST(ExpiryDowntime, DownNodeAgesOutOfTablesAndTrustKeepsDecaying) {
  TrustExperiment exp{downtime_config()};
  exp.setup();
  const NodeId victim{kVictim};

  // Rounds run on the 5 s churn cadence: round k ends no earlier than
  // t = 15 + 5k seconds. Round 1 ends right at the crash instant; its
  // trust snapshot is the pre-decay baseline (the round's investigation
  // ran before t=20 s, while the victim could still answer).
  const auto r1 = exp.run_round();
  const double trust_before = r1.trust.at(victim);

  auto& investigator = exp.network().agent(0);

  TrustExperiment::RoundSnapshot r4;
  for (int r = 1; r < 4; ++r) r4 = exp.run_round();
  // Four rounds in: t ≥ 35 s, the victim has been dark for ≥ 15 s — past
  // every OLSR hold time (links ~6 s, TC topology ~15 s). Round 5 is too
  // late to observe the downtime: its false-conviction probe of the corpse
  // runs into answer timeouts and overshoots the 43 s restart.
  ASSERT_GE(r4.at.us(), sim::Time::from_seconds(35.0).us());
  ASSERT_EQ(r4.down, 1u);

  // Swept from the OLSR tables: no live link, no neighbor entry, no route.
  const auto now = exp.network().now();
  EXPECT_FALSE(investigator.links().is_symmetric(now, victim));
  EXPECT_FALSE(investigator.neighbors().neighbor(victim).has_value());
  EXPECT_FALSE(investigator.routes().route_to(victim).has_value());

  // Trust decays while the victim cannot answer investigations — it must
  // not freeze at the last pre-crash value (DetectorConfig's
  // decay_unresponsive, enabled for faulted runs).
  EXPECT_LT(r4.trust.at(victim), trust_before);

  // No false conviction of the corpse, and no safety-rule violations.
  EXPECT_EQ(r4.false_convictions, 0u);
  EXPECT_TRUE(exp.invariants()->clean());

  // Restart at 43 s; by round 11 (t ≥ 70 s) the same NodeId has been
  // re-learned end to end: link, neighbor entry, route, and the up-aware
  // convergence criterion includes it again.
  TrustExperiment::RoundSnapshot last;
  for (int r = 4; r < 11; ++r) last = exp.run_round();
  EXPECT_EQ(last.down, 0u);
  EXPECT_TRUE(last.converged);
  const auto later = exp.network().now();
  EXPECT_TRUE(investigator.links().is_symmetric(later, victim));
  EXPECT_TRUE(investigator.neighbors().neighbor(victim).has_value());
  ASSERT_TRUE(investigator.routes().route_to(victim).has_value());
  EXPECT_TRUE(exp.invariants()->clean());
}

TEST(ExpiryDowntime, VictimRoutesToPeersAgainAfterRestart) {
  // The restarted node itself (state intact, not amnesiac) must also
  // re-converge: its own routing table names every peer again.
  TrustExperiment exp{downtime_config()};
  exp.setup();
  TrustExperiment::RoundSnapshot last;
  for (int r = 0; r < 11; ++r) last = exp.run_round();
  ASSERT_TRUE(last.converged);

  auto& victim_agent = exp.network().agent(kVictim);
  EXPECT_TRUE(victim_agent.running());
  std::size_t reachable = 0;
  for (std::size_t i = 0; i < exp.network().size(); ++i) {
    if (i == kVictim) continue;
    if (victim_agent.routes().route_to(Network::id_of(i))) ++reachable;
  }
  EXPECT_EQ(reachable, exp.network().size() - 1);
}

TEST(ExpiryDowntime, AmnesiacRestartColdTablesAlsoReconverge) {
  // The amnesia variant: tables are reset before the restart, so the node
  // rejoins as a cold stranger and must re-learn everything.
  auto c = downtime_config();
  c.fault_plan = faults::FaultPlan::parse(
      "20000 crash n5\n"
      "43000 restart_amnesia n5\n");
  TrustExperiment exp{c};
  exp.setup();
  TrustExperiment::RoundSnapshot last;
  for (int r = 0; r < 11; ++r) last = exp.run_round();
  EXPECT_EQ(last.down, 0u);
  EXPECT_TRUE(last.converged);
  EXPECT_TRUE(
      exp.network().agent(0).routes().route_to(NodeId{kVictim}).has_value());
  EXPECT_TRUE(exp.invariants()->clean());
}

}  // namespace
}  // namespace manet::scenario
