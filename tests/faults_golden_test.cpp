// Golden-trace regression for faulted runs: a fixed-seed 16-node chaos
// sweep must reproduce the committed graceful-degradation CSV byte for
// byte, on any worker thread count. This pins the fault subsystem end to
// end — chaos plan derivation, injector replay, drop-on-arrival, the
// liveness-gated detector, degradation metrics and CSV formatting.
//
// Regenerate the fixture only for an intentional trace change, with the
// command in tests/fixtures/README.md.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "byte_digest.hpp"
#include "runtime/aggregator.hpp"
#include "runtime/runner.hpp"
#include "scenario/trust_experiment.hpp"

namespace {

using namespace manet;

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << "cannot open fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The exact spec the fixture was recorded with (the CLI `--sweep chaos`
/// preset, shrunk). Keep in sync with tests/fixtures/README.md.
runtime::ExperimentSpec golden_chaos_spec() {
  runtime::ExperimentSpec spec;
  spec.seeds = runtime::ExperimentSpec::seed_range(2024, 3);
  spec.node_counts = {16};
  spec.attacker_fractions = {0.25};
  spec.rounds = 8;
  spec.chaos = true;
  return spec;
}

std::string degradation_csv_for(const runtime::ExperimentSpec& spec,
                                unsigned threads) {
  runtime::Runner::Config rc;
  rc.threads = threads;
  runtime::Runner runner{rc};
  const auto results = runner.run(spec);
  const runtime::Aggregator aggregator{0.95};
  return runtime::Aggregator::degradation_csv(aggregator.degradation(results));
}

std::string fixture_path() {
  return std::string{MANET_FIXTURE_DIR} + "/golden_degradation_16node_chaos.csv";
}

TEST(FaultsGolden, ChaosDegradationCsvMatchesFixture) {
  const auto expected = read_file(fixture_path());
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(degradation_csv_for(golden_chaos_spec(), 1), expected)
      << "chaos degradation trace diverged from the committed fixture; if "
         "this change is intentionally trace-altering, regenerate per "
         "tests/fixtures/README.md";
}

TEST(FaultsGolden, WorkerThreadCountDoesNotChangeTheChaosTrace) {
  const auto expected = read_file(fixture_path());
  EXPECT_EQ(degradation_csv_for(golden_chaos_spec(), 4), expected);
}

// The churn fixture above pins three seeds; the determinism contract is
// per-seed, so sweep a wide seed range and require byte equality between
// a serial and a 4-worker run — both the aggregate and the degradation
// tables, which together cover every per-replication metric.
TEST(FaultsGolden, FiftySeedFaultedSweepIsThreadInvariant) {
  runtime::ExperimentSpec spec;
  spec.seeds = runtime::ExperimentSpec::seed_range(7, 50);
  spec.node_counts = {16};
  spec.attacker_fractions = {0.25};
  spec.rounds = 4;
  spec.chaos = true;

  auto run_with = [&](unsigned threads) {
    runtime::Runner::Config rc;
    rc.threads = threads;
    runtime::Runner runner{rc};
    const auto results = runner.run(spec);
    const runtime::Aggregator aggregator{0.95};
    return runtime::Aggregator::to_csv(aggregator.aggregate(results)) +
           runtime::Aggregator::degradation_csv(aggregator.degradation(results));
  };
  EXPECT_EQ(run_with(1), run_with(4));
}

// The one faulted grayhole pin: the per-round and degradation CSVs of
// `manet_experiments --sweep grayhole --faults chaos --seeds 2 --rounds 6`,
// digested. Only here do the scan-driven round and the churn probe run
// together (the grayhole checkpoint and matrix runs are pristine). Like the
// CLI, no replication may record a false conviction or an invariant
// violation. Regenerate the digest only for an intentional trace change,
// from this test's failure output.
TEST(FaultsGolden, ChaosGrayholeSweepMatchesDigest) {
  runtime::ExperimentSpec spec;
  spec.seeds = runtime::ExperimentSpec::seed_range(42, 2);
  spec.node_counts = {16};
  spec.attacker_fractions = {0.0, 0.25};
  spec.rounds = 6;
  spec.attack = scenario::TrustExperiment::AttackKind::kGrayhole;
  spec.chaos = true;
  for (const unsigned threads : {1u, 4u}) {
    runtime::Runner runner{runtime::Runner::Config{threads}};
    const auto results = runner.run(spec);
    for (const auto& r : results) {
      EXPECT_EQ(r.false_convictions, 0u) << "seed " << r.seed;
      EXPECT_EQ(r.invariant_violations, 0u) << "seed " << r.seed;
    }
    const runtime::Aggregator aggregator{0.95};
    const auto csv =
        runtime::Aggregator::per_round_csv(aggregator.per_round(results)) +
        runtime::Aggregator::degradation_csv(aggregator.degradation(results));
    EXPECT_EQ(test_digest::fnv1a64({csv.begin(), csv.end()}),
              5455733211052581678ull)
        << "threads " << threads;
  }
}

// The psim sharded engine steps fault events at quiescent 250 ms window
// barriers, so a faulted sharded run must be byte-identical for any
// engine thread count — the intra-replication determinism contract.
TEST(FaultsGolden, ShardedFaultedRunIsEngineThreadInvariant) {
  auto run_with = [](unsigned engine_threads) {
    scenario::TrustExperiment::Config cfg;
    cfg.seed = 2024;
    cfg.num_nodes = 16;
    cfg.num_liars = 4;
    cfg.engine = sim::EngineKind::kSharded;
    cfg.engine_threads = engine_threads;
    cfg.shards = 4;
    cfg.fault_plan = faults::FaultPlan::chaos(
        2024, 16, 200.0, sim::Time::from_seconds(20.0),
        sim::Time::from_seconds(60.0));
    scenario::TrustExperiment exp{cfg};
    exp.setup();
    std::ostringstream out;
    out.precision(17);  // full doubles: equality means bit-equal state
    for (int r = 0; r < 8; ++r) {
      const auto s = exp.run_round();
      out << s.round << ' ' << s.at.us() << ' ' << s.detect << ' '
          << static_cast<int>(s.verdict) << ' ' << s.down << ' '
          << s.suppressed << ' ' << s.false_convictions << ' '
          << static_cast<int>(s.converged);
      for (const auto& [id, t] : s.trust) out << ' ' << t;
      out << '\n';
    }
    return out.str();
  };
  EXPECT_EQ(run_with(1), run_with(4));
}

}  // namespace
