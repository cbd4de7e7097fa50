// Unit tests for the trust system: Eq. 5 updates, forgetting/idle
// relaxation, entropy-based recommendation trust, propagation (Eq. 6-7),
// trusted aggregation (Eq. 8) and the confidence-gated decision (Eq. 9-10).

#include <gtest/gtest.h>

#include "sim/rng.hpp"
#include "trust/detection.hpp"
#include "trust/propagation.hpp"
#include "trust/trust_store.hpp"

namespace manet::trust {
namespace {

NodeId n(std::uint32_t v) { return NodeId{v}; }

TEST(TrustStore, UnknownSubjectGetsDefault) {
  TrustStore store;
  EXPECT_DOUBLE_EQ(store.trust(n(1)), 0.4);
  EXPECT_FALSE(store.known(n(1)));
}

TEST(TrustStore, SetTrustClamps) {
  TrustStore store;
  store.set_trust(n(1), 5.0);
  EXPECT_DOUBLE_EQ(store.trust(n(1)), 1.0);
  store.set_trust(n(1), -5.0);
  EXPECT_DOUBLE_EQ(store.trust(n(1)), 0.0);
}

TEST(TrustStore, InvalidParamsThrow) {
  TrustParams bad;
  bad.min_trust = 1.0;
  bad.max_trust = 0.0;
  EXPECT_THROW(TrustStore{bad}, std::invalid_argument);
  TrustParams bad2;
  bad2.forgetting = 1.5;
  EXPECT_THROW(TrustStore{bad2}, std::invalid_argument);
}

TEST(TrustStore, Equation5BeneficialAndHarmful) {
  TrustParams p;
  p.forgetting = 0.9;
  TrustStore store{p};
  store.set_trust(n(1), 0.5);
  // T = alpha*e + beta*T = 0.05*1 + 0.9*0.5 = 0.5
  store.apply_evidence(n(1), Evidence{+1.0, 0.05, true, "good"});
  EXPECT_NEAR(store.trust(n(1)), 0.5, 1e-12);
  // T = 0.3*(-1) + 0.9*0.5 = 0.15
  store.apply_evidence(n(1), Evidence{-1.0, 0.30, true, "bad"});
  EXPECT_NEAR(store.trust(n(1)), 0.15, 1e-12);
}

TEST(TrustStore, Equation5MultipleEvidencesSum) {
  TrustParams p;
  p.forgetting = 0.8;
  TrustStore store{p};
  store.set_trust(n(1), 0.5);
  const std::vector<Evidence> evs{{+1.0, 0.1, true, "a"},
                                  {-1.0, 0.2, true, "b"},
                                  {+1.0, 0.05, false, "c"}};
  // sum = 0.1 - 0.2 + 0.05 = -0.05; T = -0.05 + 0.8*0.5 = 0.35
  store.apply_evidence(n(1), evs);
  EXPECT_NEAR(store.trust(n(1)), 0.35, 1e-12);
}

TEST(TrustStore, LiarTrustCollapsesRegardlessOfInitialValue) {
  // The paper's Fig. 1 property: the trust of a liar decreases largely
  // regardless of its initial trust value.
  for (double initial : {0.2, 0.5, 0.8}) {
    TrustStore store;
    store.set_trust(n(1), initial);
    for (int round = 0; round < 10; ++round)
      store.apply_evidence(n(1), lie_evidence(store.params().gravity_lie));
    EXPECT_LT(store.trust(n(1)), 0.05) << "initial=" << initial;
  }
}

TEST(TrustStore, HonestNodeGainsOnlyALittle) {
  // Fig. 1: honest nodes with low initial trust gain slowly over 25 rounds.
  TrustStore store;
  store.set_trust(n(1), 0.2);
  for (int round = 0; round < 25; ++round)
    store.apply_evidence(n(1),
                         honest_answer_evidence(store.params().reward_honest));
  EXPECT_GT(store.trust(n(1)), 0.3);
  EXPECT_LT(store.trust(n(1)), 0.55);  // bounded by alpha/(1-beta) = 0.5
}

TEST(TrustStore, IdleRelaxationTowardDefaultFromAbove) {
  TrustStore store;
  store.set_trust(n(1), 0.8);
  for (int i = 0; i < 40; ++i) store.decay_idle(n(1));
  EXPECT_NEAR(store.trust(n(1)), 0.4, 0.01);
}

TEST(TrustStore, IdleRecoveryFromBelowIsSlower) {
  // Fig. 2's defensive asymmetry: a former liar (trust near 0) recovers
  // much more slowly than a good node decays from above.
  TrustStore store;
  store.set_trust(n(1), 0.0);  // former liar
  store.set_trust(n(2), 0.8);  // reputable node
  const int rounds = 25;
  for (int i = 0; i < rounds; ++i) store.decay_all_idle();
  EXPECT_NEAR(store.trust(n(2)), 0.4, 0.01);  // reached default
  EXPECT_LT(store.trust(n(1)), 0.35);         // still below default
  EXPECT_GT(store.trust(n(1)), 0.1);          // but recovering
}

TEST(TrustStore, RecommendationTrustNeutralWithoutHistory) {
  TrustStore store;
  EXPECT_DOUBLE_EQ(store.recommendation_trust(n(1)), 0.0);
}

TEST(TrustStore, RecommendationTrustGrowsWithConsistency) {
  TrustStore store;
  for (int i = 0; i < 20; ++i) store.record_interaction(n(1), true);
  for (int i = 0; i < 20; ++i) store.record_interaction(n(2), false);
  EXPECT_GT(store.recommendation_trust(n(1)), 0.5);
  EXPECT_LT(store.recommendation_trust(n(2)), -0.5);
  // Mixed history stays near maximal uncertainty.
  for (int i = 0; i < 10; ++i) {
    store.record_interaction(n(3), i % 2 == 0);
  }
  EXPECT_NEAR(store.recommendation_trust(n(3)), 0.0, 0.1);
}

TEST(Propagation, ConcatenatedNeverAmplifies) {
  // Eq. 6: trust through a third party is bounded by both links.
  EXPECT_DOUBLE_EQ(concatenated_trust(0.5, 0.8), 0.4);
  EXPECT_DOUBLE_EQ(concatenated_trust(1.0, 0.7), 0.7);
  EXPECT_DOUBLE_EQ(concatenated_trust(0.0, 0.9), 0.0);
  for (double r : {0.2, 0.6, 0.9}) {
    for (double t : {-0.8, 0.3, 1.0}) {
      EXPECT_LE(std::abs(concatenated_trust(r, t)), std::abs(t));
      EXPECT_LE(std::abs(concatenated_trust(r, t)), std::abs(r));
    }
  }
}

TEST(Propagation, MultipathWeightsByRecommendation) {
  // Eq. 7: w_i = 1/sum(R); a highly recommended path dominates.
  std::vector<RecommendationPath> paths{
      {n(1), 0.9, +1.0},
      {n(2), 0.1, -1.0},
  };
  const double t = multipath_trust(paths);
  EXPECT_NEAR(t, (0.9 * 1.0 + 0.1 * -1.0) / 1.0, 1e-12);
  EXPECT_GT(t, 0.0);
}

TEST(Propagation, MultipathDegenerateCases) {
  EXPECT_DOUBLE_EQ(multipath_trust({}), 0.0);
  std::vector<RecommendationPath> untrusted{{n(1), -0.5, 1.0},
                                            {n(2), 0.2, 1.0}};
  // Recommendation sum <= 0: no usable information.
  EXPECT_DOUBLE_EQ(multipath_trust(untrusted), 0.0);
}

TEST(Propagation, ChainedTrustMonotoneShrink) {
  const std::vector<double> chain{0.9, 0.8, 0.7};
  EXPECT_NEAR(chained_trust(chain), 0.9 * 0.8 * 0.7, 1e-12);
}

TEST(Detection, Equation8WeightedAggregate) {
  std::vector<WeightedAnswer> answers{
      {n(1), 0.5, -1.0},
      {n(2), 0.5, -1.0},
      {n(3), 0.5, +1.0},
  };
  // (0.5*-1 + 0.5*-1 + 0.5*1) / 1.5 = -1/3
  EXPECT_NEAR(aggregate_detection(answers), -1.0 / 3.0, 1e-12);
}

TEST(Detection, Equation8LiarsWithZeroTrustHaveNoInfluence) {
  // The paper's convergence argument: once liars' trust hits bottom their
  // answers stop influencing the investigation.
  std::vector<WeightedAnswer> answers{
      {n(1), 0.5, -1.0},
      {n(2), 0.0, +1.0},  // liar, fully distrusted
  };
  EXPECT_NEAR(aggregate_detection(answers), -1.0, 1e-12);
}

TEST(Detection, Equation8EmptyOrUntrustedIsZero) {
  EXPECT_DOUBLE_EQ(aggregate_detection({}), 0.0);
  std::vector<WeightedAnswer> all_zero{{n(1), 0.0, 1.0}};
  EXPECT_DOUBLE_EQ(aggregate_detection(all_zero), 0.0);
}

TEST(Detection, NoAnswerCountsAsZeroEvidence) {
  // e=0 answers dilute the aggregate but never flip its sign.
  std::vector<WeightedAnswer> answers{
      {n(1), 0.4, -1.0},
      {n(2), 0.4, 0.0},
      {n(3), 0.4, 0.0},
  };
  EXPECT_NEAR(aggregate_detection(answers), -1.0 / 3.0, 1e-12);
}

DecisionConfig cfg(double gamma = 0.6, double cl = 0.95, bool use_ci = true) {
  DecisionConfig c;
  c.gamma = gamma;
  c.confidence_level = cl;
  c.use_confidence_interval = use_ci;
  return c;
}

std::vector<WeightedAnswer> unanimous(int count, double evidence,
                                      double trust = 0.5) {
  std::vector<WeightedAnswer> out;
  for (int i = 0; i < count; ++i)
    out.push_back({n(static_cast<std::uint32_t>(i)), trust, evidence});
  return out;
}

TEST(Decision, UnanimousDenialConvictsWithEnoughSamples) {
  const auto d = decide(unanimous(30, -1.0), cfg());
  EXPECT_EQ(d.verdict, Verdict::kIntruder);
  EXPECT_NEAR(d.detect, -1.0, 1e-12);
  EXPECT_NEAR(d.interval.margin, 0.0, 1e-9);  // zero spread
}

TEST(Decision, UnanimousConfirmationExonerates) {
  const auto d = decide(unanimous(30, +1.0), cfg());
  EXPECT_EQ(d.verdict, Verdict::kWellBehaving);
}

TEST(Decision, FewSamplesStayUnrecognized) {
  // One sample: unknown spread -> maximal margin -> must not convict.
  const auto d = decide(unanimous(1, -1.0), cfg());
  EXPECT_EQ(d.verdict, Verdict::kUnrecognized);
}

TEST(Decision, MixedAnswersWideMarginUnrecognized) {
  std::vector<WeightedAnswer> answers;
  for (int i = 0; i < 6; ++i)
    answers.push_back({n(static_cast<std::uint32_t>(i)), 0.5,
                       i % 2 == 0 ? -1.0 : 1.0});
  const auto d = decide(answers, cfg());
  EXPECT_EQ(d.verdict, Verdict::kUnrecognized);
}

TEST(Decision, DisablingConfidenceIntervalIsLessCautious) {
  // 8 samples leaning negative: with the CI gate the margin blocks the
  // verdict; without it, plain thresholding convicts. This is the paper's
  // motivation for the indicator (ablation Table D).
  std::vector<WeightedAnswer> answers;
  for (int i = 0; i < 7; ++i)
    answers.push_back({n(static_cast<std::uint32_t>(i)), 0.5, -1.0});
  answers.push_back({n(7), 0.5, +1.0});
  const auto gated = decide(answers, cfg());
  const auto ungated = decide(answers, cfg(0.6, 0.95, false));
  EXPECT_EQ(gated.verdict, Verdict::kUnrecognized);
  EXPECT_EQ(ungated.verdict, Verdict::kIntruder);
}

TEST(Decision, HigherConfidenceLevelNeedsMoreEvidence) {
  std::vector<WeightedAnswer> answers;
  for (int i = 0; i < 20; ++i)
    answers.push_back({n(static_cast<std::uint32_t>(i)), 0.5,
                       i < 19 ? -1.0 : 1.0});
  const auto relaxed = decide(answers, cfg(0.6, 0.90));
  const auto strict = decide(answers, cfg(0.6, 0.9999));
  EXPECT_EQ(relaxed.verdict, Verdict::kIntruder);
  EXPECT_EQ(strict.verdict, Verdict::kUnrecognized);
}

TEST(Decision, VerdictToString) {
  EXPECT_EQ(to_string(Verdict::kIntruder), "intruder");
  EXPECT_EQ(to_string(Verdict::kWellBehaving), "well-behaving");
  EXPECT_EQ(to_string(Verdict::kUnrecognized), "unrecognized");
}

// Property: the decision respects gamma symmetry — flipping every evidence
// sign flips intruder <-> well-behaving.
class DecisionSymmetry : public ::testing::TestWithParam<int> {};

TEST_P(DecisionSymmetry, FlippingEvidenceFlipsVerdict) {
  std::vector<WeightedAnswer> neg, pos;
  sim::Rng rng{static_cast<std::uint64_t>(GetParam())};
  for (int i = 0; i < 20; ++i) {
    const double e = rng.bernoulli(0.9) ? -1.0 : 1.0;
    const double t = rng.uniform_real(0.2, 0.9);
    neg.push_back({n(static_cast<std::uint32_t>(i)), t, e});
    pos.push_back({n(static_cast<std::uint32_t>(i)), t, -e});
  }
  const auto dn = decide(neg, cfg());
  const auto dp = decide(pos, cfg());
  EXPECT_NEAR(dn.detect, -dp.detect, 1e-12);
  if (dn.verdict == Verdict::kIntruder) {
    EXPECT_EQ(dp.verdict, Verdict::kWellBehaving);
  }
  if (dn.verdict == Verdict::kWellBehaving) {
    EXPECT_EQ(dp.verdict, Verdict::kIntruder);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecisionSymmetry, ::testing::Range(1, 15));

// --- properties over random calibrations -----------------------------------
// The bounds Sen's trust frameworks (arXiv:1010.5176, 1012.2519) state for
// this class of update, checked for random TrustParams / DecisionConfig
// rather than only the calibration of the figures.

/// A random calibration: bounds anywhere around [0, 1], the default inside
/// them, every rate and weight in [0, 1] (the endpoints included).
TrustParams random_params(sim::Rng& rng) {
  const auto unit = [&rng] {
    const auto pick = rng.uniform_int(0, 9);
    return pick == 0 ? 0.0 : pick == 1 ? 1.0 : rng.uniform_real(0.0, 1.0);
  };
  TrustParams p;
  p.min_trust = rng.uniform_real(-0.5, 0.5);
  p.max_trust = p.min_trust + rng.uniform_real(0.01, 1.5);
  p.default_trust = rng.uniform_real(p.min_trust, p.max_trust);
  p.forgetting = unit();
  p.gravity_lie = unit();
  p.reward_honest = unit();
  p.idle_rate_from_above = unit();
  p.idle_rate_from_below = unit();
  return p;
}

DecisionConfig random_decision(sim::Rng& rng) {
  DecisionConfig c;
  c.gamma = rng.uniform_real(0.01, 1.0);
  c.confidence_level = rng.uniform_real(0.5, 0.9999);
  c.use_confidence_interval = rng.bernoulli(0.8);
  return c;
}

/// Random answers: trust in [0, 1] (sometimes exactly 0), evidence in
/// [-1, 1] (mostly the protocol's -1, 0, +1).
std::vector<WeightedAnswer> random_answers(sim::Rng& rng, int count) {
  std::vector<WeightedAnswer> out;
  for (int i = 0; i < count; ++i) {
    const double trust = rng.bernoulli(0.1) ? 0.0 : rng.uniform_real(0.0, 1.0);
    const double evidence =
        rng.bernoulli(0.3) ? rng.uniform_real(-1.0, 1.0)
                           : static_cast<double>(rng.uniform_int(-1, 1));
    out.push_back({n(static_cast<std::uint32_t>(i)), trust, evidence});
  }
  return out;
}

TEST(TrustProperties, Eq5KeepsTrustWithinItsBounds) {
  sim::Rng rng{501};
  for (int trial = 0; trial < 200; ++trial) {
    const auto p = random_params(rng);
    TrustStore store{p};
    for (int slot = 0; slot < 50; ++slot) {
      const NodeId subject = n(static_cast<std::uint32_t>(rng.uniform_int(0, 4)));
      std::vector<Evidence> evs;
      for (auto k = rng.uniform_int(0, 3); k > 0; --k)
        evs.push_back({rng.uniform_real(-1.0, 1.0), rng.uniform_real(0.0, 2.0),
                       true, ""});
      const double t = store.apply_evidence(subject, evs);
      ASSERT_GE(t, p.min_trust) << "trial " << trial;
      ASSERT_LE(t, p.max_trust) << "trial " << trial;
      ASSERT_EQ(t, store.trust(subject)) << "trial " << trial;
    }
  }
}

TEST(TrustProperties, IdleSlotsMoveTowardDefaultWithoutCrossingIt) {
  sim::Rng rng{502};
  for (int trial = 0; trial < 200; ++trial) {
    const auto p = random_params(rng);
    const double d = p.default_trust;
    TrustStore store{p};
    std::vector<double> before;
    for (std::uint32_t s = 0; s < 8; ++s) {
      // Some subjects start exactly at the default or at a bound.
      const auto pick = rng.uniform_int(0, 5);
      const double t = pick == 0   ? d
                       : pick == 1 ? p.min_trust
                       : pick == 2 ? p.max_trust
                                   : rng.uniform_real(p.min_trust, p.max_trust);
      store.set_trust(n(s), t);
      before.push_back(store.trust(n(s)));
    }
    const auto between = [d](double was, double now) {
      return was >= d ? d <= now && now <= was : was <= now && now <= d;
    };
    for (int slot = 0; slot < 20; ++slot) {
      const bool sweep = rng.bernoulli(0.5);
      const NodeId one = n(static_cast<std::uint32_t>(rng.uniform_int(0, 7)));
      if (sweep)
        store.decay_all_idle();
      else
        store.decay_idle(one);
      for (std::uint32_t s = 0; s < 8; ++s) {
        const double now = store.trust(n(s));
        ASSERT_TRUE(between(before[s], now))
            << "trial " << trial << " subject " << s << ": " << before[s]
            << " -> " << now << " with default " << d;
        before[s] = now;
      }
    }
  }
}

TEST(TrustProperties, Eq8StaysInTheUnitRange) {
  sim::Rng rng{503};
  for (int trial = 0; trial < 2000; ++trial) {
    const auto answers =
        random_answers(rng, static_cast<int>(rng.uniform_int(0, 40)));
    const double detect = aggregate_detection(answers);
    ASSERT_GE(detect, -1.0) << "trial " << trial;
    ASSERT_LE(detect, 1.0) << "trial " << trial;
  }
}

TEST(TrustProperties, Eq10LeavesFewerThanTwoAnswersUnrecognized) {
  // With one sample or none the spread is unknown, so eps = 2 and no
  // Detect in [-1, 1] clears a positive gamma.
  sim::Rng rng{504};
  for (int trial = 0; trial < 500; ++trial) {
    auto config = random_decision(rng);
    config.use_confidence_interval = true;
    const auto d = decide(
        random_answers(rng, static_cast<int>(rng.uniform_int(0, 1))), config);
    ASSERT_EQ(d.interval.margin, 2.0) << "trial " << trial;
    ASSERT_EQ(d.verdict, Verdict::kUnrecognized) << "trial " << trial;
  }
}

TEST(TrustProperties, Eq10DecidesOnlyBeyondTheMargin) {
  sim::Rng rng{505};
  int decided = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const auto config = random_decision(rng);
    // Lean the answers one way now and then, so verdicts do occur.
    auto answers = random_answers(rng, static_cast<int>(rng.uniform_int(2, 60)));
    if (rng.bernoulli(0.5)) {
      const double side = rng.bernoulli(0.5) ? 1.0 : -1.0;
      for (auto& a : answers)
        if (rng.bernoulli(0.9)) a.evidence = side;
    }
    const auto d = decide(answers, config);
    const double eps = config.use_confidence_interval ? d.interval.margin : 0.0;
    if (d.verdict == Verdict::kIntruder) {
      ++decided;
      ASSERT_LE(d.detect + eps, -config.gamma) << "trial " << trial;
    } else if (d.verdict == Verdict::kWellBehaving) {
      ++decided;
      ASSERT_GE(d.detect - eps, config.gamma) << "trial " << trial;
    }
    ASSERT_EQ(d.verdict, classify(d.detect, d.interval.margin, config));
  }
  EXPECT_GT(decided, 200);  // the property was exercised, not vacuous
}

}  // namespace
}  // namespace manet::trust
