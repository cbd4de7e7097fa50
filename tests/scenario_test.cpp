// Tests for the §V experiment harness: the TrustExperiment must reproduce
// the qualitative properties behind the paper's Figures 1-3.

#include <gtest/gtest.h>

#include "scenario/trust_experiment.hpp"

namespace manet::scenario {
namespace {

TrustExperiment::Config base_config(std::uint64_t seed = 3) {
  TrustExperiment::Config c;
  c.seed = seed;
  c.num_nodes = 16;
  c.num_liars = 4;
  return c;
}

TEST(TrustExperiment, SetupValidatesConfig) {
  auto c = base_config();
  c.num_nodes = 3;
  EXPECT_THROW(TrustExperiment{c}, std::invalid_argument);
  c = base_config();
  c.num_liars = 15;
  EXPECT_THROW(TrustExperiment{c}, std::invalid_argument);
}

TEST(TrustExperiment, RolesArePartitioned) {
  TrustExperiment exp{base_config()};
  exp.setup();
  EXPECT_EQ(exp.liars().size(), 4u);
  EXPECT_EQ(exp.honest().size(), 10u);  // 16 - investigator - attacker - 4
  for (auto liar : exp.liars()) {
    EXPECT_TRUE(exp.is_liar(liar));
    EXPECT_NE(liar, exp.investigator());
    EXPECT_NE(liar, exp.attacker());
  }
}

TEST(TrustExperiment, Figure1LiarTrustCollapsesHonestGains) {
  TrustExperiment exp{base_config()};
  exp.setup();
  const auto snaps = exp.run_attack_rounds(25);
  ASSERT_EQ(snaps.size(), 25u);
  const auto& last = snaps.back();

  // Every liar ends with very low trust regardless of initial value.
  for (auto liar : exp.liars())
    EXPECT_LT(last.trust.at(liar), 0.1) << liar.to_string();
  // Honest nodes end above every liar.
  double min_honest = 1.0, max_liar = 0.0;
  for (auto h : exp.honest()) min_honest = std::min(min_honest, last.trust.at(h));
  for (auto l : exp.liars()) max_liar = std::max(max_liar, last.trust.at(l));
  EXPECT_GT(min_honest, max_liar);
}

TEST(TrustExperiment, Figure3DetectConvergesNegative) {
  TrustExperiment exp{base_config()};
  exp.setup();
  const auto snaps = exp.run_attack_rounds(25);
  // After 10 rounds the investigation leans clearly negative...
  EXPECT_LT(snaps[9].detect, -0.4);
  // ...and converges strongly by round 25.
  EXPECT_LT(snaps.back().detect, -0.8);
  // The final verdict is "intruder".
  EXPECT_EQ(snaps.back().verdict, trust::Verdict::kIntruder);
}

TEST(TrustExperiment, Figure3HoldsWithManyLiars) {
  auto c = base_config(11);
  c.num_liars = 6;  // 42.9% of the 14 verifiers
  TrustExperiment exp{c};
  exp.setup();
  const auto snaps = exp.run_attack_rounds(25);
  EXPECT_LT(snaps[9].detect, -0.4);
  EXPECT_LT(snaps.back().detect, -0.7);
}

TEST(TrustExperiment, Figure2ForgettingRelaxesTowardDefault) {
  TrustExperiment exp{base_config()};
  exp.setup();
  exp.run_attack_rounds(25);
  exp.cease_attack();
  TrustExperiment::RoundSnapshot last;
  for (int i = 0; i < 25; ++i) last = exp.run_idle_round();

  // Honest nodes (above default after the attack) relax down to ~0.4.
  for (auto h : exp.honest())
    EXPECT_NEAR(last.trust.at(h), 0.4, 0.05) << h.to_string();
  // Former liars recover slowly and stay below the default.
  for (auto l : exp.liars()) {
    EXPECT_LT(last.trust.at(l), 0.38) << l.to_string();
    EXPECT_GT(last.trust.at(l), 0.05) << l.to_string();
  }
}

TEST(TrustExperiment, DeterministicAcrossRuns) {
  auto run = [&] {
    TrustExperiment exp{base_config(42)};
    exp.setup();
    return exp.run_attack_rounds(5);
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].detect, b[i].detect);
    EXPECT_EQ(a[i].trust, b[i].trust);
  }
}

TEST(TrustExperiment, LossyRadioStillConverges) {
  auto c = base_config(5);
  c.radio_loss = 0.1;  // the paper's "high level of collisions" environment
  TrustExperiment exp{c};
  exp.setup();
  const auto snaps = exp.run_attack_rounds(25);
  EXPECT_LT(snaps.back().detect, -0.6);
}

}  // namespace
}  // namespace manet::scenario
