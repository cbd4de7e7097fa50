// The sharded parallel engine's determinism contract, pinned three ways:
//
// 1. Unit invariants: the spatial ShardMap is a pure function of
//    (positions, cell size, shard count); the ShardQueue pops in global
//    (time, origin node, origin seq) order; misuse (out-of-context draws,
//    unsupported radio configs) fails loudly.
// 2. Invariance: one fixed-seed replication produces *identical* results —
//    detect trajectories, verdicts, conviction rounds, per-node trust,
//    control-message counts — for every (worker threads, shards)
//    combination, including against the committed sharded golden fixture
//    (tests/fixtures/golden_per_round_16node_sharded.csv).
// 3. Behavioural equivalence: across many seeds, the sharded engine reaches
//    the same conviction rounds and verdicts as the sequential engine (the
//    two draw from different RNG stream layouts, so traces are equivalent,
//    not byte-identical — see docs/ARCHITECTURE.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "psim/engine.hpp"
#include "psim/shard_map.hpp"
#include "psim/shard_queue.hpp"
#include "runtime/aggregator.hpp"
#include "runtime/runner.hpp"
#include "scenario/trust_experiment.hpp"

namespace {

using namespace manet;

// ---------------------------------------------------------------- units

TEST(ShardMap, IsBalancedAndDeterministic) {
  std::vector<net::Position> layout;
  sim::Rng rng{7};
  for (int i = 0; i < 103; ++i)
    layout.push_back(net::Position{rng.uniform_real(0, 2000.0),
                                   rng.uniform_real(0, 1500.0)});

  const psim::ShardMap a{layout, 250.0, 4};
  const psim::ShardMap b{layout, 250.0, 4};
  ASSERT_EQ(a.count(), 4u);
  std::size_t total = 0;
  for (unsigned s = 0; s < a.count(); ++s) {
    // Near-equal cut: 103 nodes over 4 shards is 26/26/26/25.
    EXPECT_GE(a.members(s).size(), 25u);
    EXPECT_LE(a.members(s).size(), 26u);
    total += a.members(s).size();
    EXPECT_EQ(a.members(s), b.members(s));
  }
  EXPECT_EQ(total, layout.size());
  for (std::size_t i = 0; i < layout.size(); ++i)
    EXPECT_EQ(a.shard_of_index(i), b.shard_of_index(i));
}

TEST(ShardMap, StripesFollowX) {
  // Nodes on a west-to-east line: stripe s must hold smaller x than s+1.
  std::vector<net::Position> layout;
  for (int i = 0; i < 40; ++i)
    layout.push_back(net::Position{static_cast<double>(i) * 100.0, 0.0});
  const psim::ShardMap map{layout, 250.0, 4};
  for (unsigned s = 0; s + 1 < map.count(); ++s) {
    for (auto lo : map.members(s))
      for (auto hi : map.members(s + 1))
        EXPECT_LT(layout[lo].x, layout[hi].x);
  }
}

TEST(ShardMap, MoreShardsThanNodesCollapses) {
  const std::vector<net::Position> layout{{0, 0}, {1, 1}, {2, 2}};
  const psim::ShardMap map{layout, 250.0, 16};
  EXPECT_EQ(map.count(), 3u);
}

TEST(ShardQueue, PopsInGlobalOriginKeyOrder) {
  psim::ShardQueue q;
  std::vector<int> ran;
  auto ev = [&](int tag) { return [&ran, tag] { ran.push_back(tag); }; };
  // Same time, different origins / sequences, pushed out of order.
  q.push({sim::Time::from_us(10), 5, 2, 0, 1, ev(3)});
  q.push({sim::Time::from_us(10), 2, 9, 0, 2, ev(1)});
  q.push({sim::Time::from_us(5), 9, 1, 0, 3, ev(0)});
  q.push({sim::Time::from_us(10), 5, 1, 0, 4, ev(2)});
  q.push({sim::Time::from_us(11), 1, 1, 0, 5, ev(4)});
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ShardQueue, CancelIsLazyAndExact) {
  psim::ShardQueue q;
  int ran = 0;
  q.push({sim::Time::from_us(1), 0, 1, 0, 11, [&] { ++ran; }});
  q.push({sim::Time::from_us(2), 0, 2, 0, 12, [&] { ++ran; }});
  q.cancel(11);
  EXPECT_EQ(q.pending(), 1u);
  ASSERT_FALSE(q.empty());
  EXPECT_EQ(q.next_time(), sim::Time::from_us(2));
  q.pop().cb();
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(q.empty());
}

// ------------------------------------------------- engine guard rails

TEST(ShardedEngine, RejectsCollisionModel) {
  // The collision model needs cross-shard receiver bookkeeping at transmit
  // time; Network must refuse rather than race.
  scenario::Network::Config nc;
  nc.engine = sim::EngineKind::kSharded;
  nc.radio.collision_window = sim::Duration::from_us(300);
  nc.positions = net::grid_layout(8, 50.0);
  EXPECT_THROW(scenario::Network{std::move(nc)}, std::invalid_argument);
}

TEST(ShardedEngine, RejectsZeroLookahead) {
  scenario::Network::Config nc;
  nc.engine = sim::EngineKind::kSharded;
  nc.radio.base_delay = sim::Duration{};
  nc.positions = net::grid_layout(8, 50.0);
  EXPECT_THROW(scenario::Network{std::move(nc)}, std::invalid_argument);
}

TEST(ShardedEngine, RejectsMobility) {
  scenario::Network::Config nc;
  nc.engine = sim::EngineKind::kSharded;
  nc.positions = net::grid_layout(8, 50.0);
  scenario::Network network{std::move(nc)};
  EXPECT_THROW(
      network.set_mobility(0, std::make_unique<net::RandomWaypoint>(
                                  net::Position{},
                                  net::RandomWaypoint::Config{})),
      std::invalid_argument);
}

TEST(ShardedEngine, RunAsNestsOnTheSameLane) {
  // Two nodes forced onto one lane: the inner run_as must hand the outer
  // node context back, so the outer body can keep drawing and scheduling.
  psim::Engine::Config pc;
  pc.seed = 9;
  pc.threads = 1;
  pc.shards = 1;
  pc.lookahead = sim::Duration::from_us(500);
  psim::Engine engine{pc, net::grid_layout(2, 50.0)};

  bool inner_ran = false;
  engine.run_as(net::NodeId{0}, [&] {
    auto& outer = engine.shard_engine(net::NodeId{0});
    (void)outer.rng().next_u64();
    engine.run_as(net::NodeId{1}, [&] {
      (void)engine.shard_engine(net::NodeId{1}).rng().next_u64();
      inner_ran = true;
    });
    // Back in node 0's context: these must not throw.
    (void)outer.rng().next_u64();
    outer.schedule(sim::Duration::from_ms(1), [] {});
  });
  EXPECT_TRUE(inner_ran);
  engine.run_until(sim::Duration::from_ms(2));
  EXPECT_EQ(engine.stats().executed_events, 1u);
}

// A frame that lands at a host gone down is counted as dropped_down on
// either engine: Medium::stats() folds every field of the shard lanes'
// counters, not only the traffic ones.
TEST(PsimMediumStats, DroppedDownCountsOnBothEngines) {
  for (const auto engine :
       {sim::EngineKind::kSequential, sim::EngineKind::kSharded}) {
    scenario::Network::Config nc;
    nc.seed = 7;
    nc.engine = engine;
    nc.engine_threads = 1;
    nc.shards = 2;
    nc.positions = net::grid_layout(16, 50.0);
    scenario::Network network{std::move(nc)};
    // n14 transmits; n15 goes down before the frame reaches it.
    network.run_as(14, [&] {
      network.medium().broadcast(net::NodeId{14}, net::Bytes{1, 2, 3});
    });
    network.medium().set_up(net::NodeId{15}, false);
    network.run_for(sim::Duration::from_ms(10));
    EXPECT_EQ(network.medium().stats().dropped_down, 1u)
        << (engine == sim::EngineKind::kSharded ? "sharded" : "sequential");
  }
}

// ------------------------------------------------- invariance contract

runtime::ReplicationTask sharded_task(std::uint64_t seed, unsigned threads,
                                      unsigned shards) {
  runtime::ReplicationTask task;
  task.point = runtime::GridPoint{16, 0.29, runtime::MobilityPreset::kStatic};
  task.seed = seed;
  task.rounds = 4;
  task.engine = sim::EngineKind::kSharded;
  task.engine_threads = threads;
  task.shards = shards;
  return task;
}

void expect_identical(const runtime::ReplicationResult& a,
                      const runtime::ReplicationResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.final_verdict, b.final_verdict) << what;
  EXPECT_EQ(a.conviction_round, b.conviction_round) << what;
  EXPECT_EQ(a.control_messages, b.control_messages) << what;
  EXPECT_EQ(a.final_detect, b.final_detect) << what;          // bit-exact
  EXPECT_EQ(a.final_margin, b.final_margin) << what;          // bit-exact
  EXPECT_EQ(a.attacker_trust, b.attacker_trust) << what;      // bit-exact
  EXPECT_EQ(a.mean_liar_trust, b.mean_liar_trust) << what;
  EXPECT_EQ(a.mean_honest_trust, b.mean_honest_trust) << what;
  EXPECT_EQ(a.detect_per_round, b.detect_per_round) << what;  // bit-exact
}

TEST(ShardedEngine, ThreadAndShardCountInvariance) {
  const auto reference = runtime::run_replication(sharded_task(2024, 1, 2));
  // Detection must actually engage for this to pin anything interesting.
  EXPECT_EQ(reference.final_verdict, trust::Verdict::kIntruder);
  const std::pair<unsigned, unsigned> grid[] = {
      {1, 1}, {2, 2}, {4, 2}, {1, 4}, {2, 4}, {4, 4}, {4, 8}};
  for (const auto& [threads, shards] : grid) {
    const auto result =
        runtime::run_replication(sharded_task(2024, threads, shards));
    expect_identical(reference, result,
                     "threads=" + std::to_string(threads) +
                         " shards=" + std::to_string(shards));
  }
}

// --------------------------------------------- sharded golden fixture

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << "cannot open fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The exact spec the sharded fixture was recorded with. Keep in sync with
/// tests/fixtures/README.md.
runtime::ExperimentSpec golden_sharded_spec() {
  runtime::ExperimentSpec spec;
  spec.seeds = runtime::ExperimentSpec::seed_range(2024, 2);
  spec.node_counts = {16};
  spec.attacker_fractions = {0.0, 0.29};
  spec.mobility_presets = {runtime::MobilityPreset::kStatic,
                           runtime::MobilityPreset::kLowChurn};
  spec.rounds = 5;
  spec.engine = sim::EngineKind::kSharded;
  spec.shards = 4;
  return spec;
}

std::string sharded_fixture_path() {
  return std::string{MANET_FIXTURE_DIR} +
         "/golden_per_round_16node_sharded.csv";
}

std::string run_sharded_spec_per_round(unsigned threads, unsigned shards) {
  const auto spec = golden_sharded_spec();
  std::vector<runtime::ReplicationResult> results;
  for (auto task : spec.expand()) {
    task.engine_threads = threads;
    task.shards = shards;
    results.push_back(runtime::run_replication(task));
  }
  const runtime::Aggregator aggregator{0.95};
  return runtime::Aggregator::per_round_csv(aggregator.per_round(results));
}

// The hard determinism contract of the sharded engine, pinned against a
// committed artifact rather than a sibling run: the per-round CSV is
// byte-identical for every (worker threads, shards) combination.
TEST(ShardedGoldenTrace, PerRoundCsvMatchesFixtureForAnyThreadAndShardCount) {
  const auto expected = read_file(sharded_fixture_path());
  ASSERT_FALSE(expected.empty());
  const std::pair<unsigned, unsigned> grid[] = {
      {1, 4}, {4, 4}, {2, 2}, {1, 1}};
  for (const auto& [threads, shards] : grid) {
    EXPECT_EQ(run_sharded_spec_per_round(threads, shards), expected)
        << "sharded trace diverged from the committed fixture at threads="
        << threads << " shards=" << shards
        << "; if this change is intentionally trace-altering, regenerate "
           "per tests/fixtures/README.md";
  }
}

// The Runner's outer (replication-level) parallelism composes with the
// engine's inner parallelism without moving a byte either.
TEST(ShardedGoldenTrace, RunnerThreadCountDoesNotChangeTheTrace) {
  const auto expected = read_file(sharded_fixture_path());
  for (const unsigned threads : {1u, 4u}) {
    runtime::Runner runner{runtime::Runner::Config{threads}};
    const auto results = runner.run(golden_sharded_spec());
    const runtime::Aggregator aggregator{0.95};
    EXPECT_EQ(
        runtime::Aggregator::per_round_csv(aggregator.per_round(results)),
        expected)
        << "runner threads=" << threads;
  }
}

// ------------------------------------- sequential/sharded equivalence

// Across 50 seeds of the paper's §V scenario, the sharded engine must reach
// the same detection verdicts in the same conviction rounds as the
// sequential engine. The engines lay out RNG streams differently (one root
// stream vs per-node streams), so jitter timings — and under radio loss,
// loss patterns — differ; with a lossless preset the investigation protocol
// sees identical answers and must land identical decisions.
TEST(ShardedEngine, BehaviouralEquivalenceWithSequentialOver50Seeds) {
  const auto seeds = runtime::ExperimentSpec::seed_range(97, 50);
  int convictions = 0;
  for (const auto seed : seeds) {
    runtime::ReplicationTask task;
    task.point =
        runtime::GridPoint{16, 0.29, runtime::MobilityPreset::kStatic};
    task.seed = seed;
    task.rounds = 4;
    const auto sequential = runtime::run_replication(task);
    task.engine = sim::EngineKind::kSharded;
    task.engine_threads = 2;
    task.shards = 3;
    const auto sharded = runtime::run_replication(task);
    EXPECT_EQ(sequential.final_verdict, sharded.final_verdict)
        << "seed " << seed;
    EXPECT_EQ(sequential.conviction_round, sharded.conviction_round)
        << "seed " << seed;
    EXPECT_EQ(sequential.detect_per_round.size(),
              sharded.detect_per_round.size())
        << "seed " << seed;
    if (sharded.final_verdict == trust::Verdict::kIntruder) ++convictions;
  }
  // The scenario is the paper's detectable regime: equivalence over a pile
  // of never-convicting runs would pin nothing.
  EXPECT_GE(convictions, 45);
}

// Same output schema on both engines: downstream tooling cannot tell the
// CSVs apart structurally.
TEST(ShardedEngine, CsvSchemaMatchesSequential) {
  runtime::ExperimentSpec spec;
  spec.seeds = {11};
  spec.attacker_fractions = {0.29};
  spec.rounds = 2;
  runtime::Runner runner{runtime::Runner::Config{1}};
  const runtime::Aggregator aggregator{0.95};

  const auto seq_results = runner.run(spec);
  spec.engine = sim::EngineKind::kSharded;
  spec.shards = 2;
  const auto sh_results = runner.run(spec);

  auto header = [](const std::string& csv) {
    return csv.substr(0, csv.find('\n'));
  };
  auto lines = [](const std::string& csv) {
    return std::count(csv.begin(), csv.end(), '\n');
  };
  const auto seq_rows = runtime::Aggregator::to_csv(
      aggregator.aggregate(seq_results));
  const auto sh_rows = runtime::Aggregator::to_csv(
      aggregator.aggregate(sh_results));
  EXPECT_EQ(header(seq_rows), header(sh_rows));
  EXPECT_EQ(lines(seq_rows), lines(sh_rows));

  const auto seq_rounds = runtime::Aggregator::per_round_csv(
      aggregator.per_round(seq_results));
  const auto sh_rounds = runtime::Aggregator::per_round_csv(
      aggregator.per_round(sh_results));
  EXPECT_EQ(header(seq_rounds), header(sh_rounds));
  EXPECT_EQ(lines(seq_rounds), lines(sh_rounds));
}

}  // namespace
