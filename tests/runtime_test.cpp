// Unit tests for the runtime layer: ExperimentSpec grid expansion, the
// parallel Runner (determinism for a fixed seed grid, identical
// aggregates for 1-thread vs N-thread runs) and the Aggregator's
// confidence-interval arithmetic against stats/confidence directly.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <vector>

#include "runtime/aggregator.hpp"
#include "runtime/experiment_spec.hpp"
#include "runtime/runner.hpp"
#include "stats/confidence.hpp"

namespace manet::runtime {
namespace {

// Small but real: 8-node cluster, 3 rounds, enough to exercise the whole
// simulator stack per replication without slowing the suite down.
ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.seeds = ExperimentSpec::seed_range(7, 2);
  spec.node_counts = {8};
  spec.attacker_fractions = {0.0, 0.34};
  spec.mobility_presets = {MobilityPreset::kStatic};
  spec.rounds = 3;
  return spec;
}

TEST(ExperimentSpec, GridIsCartesianInDeclarationOrder) {
  ExperimentSpec spec;
  spec.node_counts = {8, 16};
  spec.attacker_fractions = {0.0, 0.25, 0.5};
  spec.mobility_presets = {MobilityPreset::kStatic, MobilityPreset::kHighChurn};
  const auto grid = spec.grid();
  ASSERT_EQ(grid.size(), 12u);
  EXPECT_EQ(grid[0].num_nodes, 8u);
  EXPECT_EQ(grid[0].attacker_fraction, 0.0);
  EXPECT_EQ(grid[0].mobility, MobilityPreset::kStatic);
  EXPECT_EQ(grid[1].mobility, MobilityPreset::kHighChurn);
  EXPECT_EQ(grid[11].num_nodes, 16u);
  EXPECT_EQ(grid[11].attacker_fraction, 0.5);
}

TEST(ExperimentSpec, ExpandAssignsStableIndices) {
  auto spec = small_spec();
  const auto tasks = spec.expand();
  ASSERT_EQ(tasks.size(), spec.replication_count());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(tasks[i].index, i);
    EXPECT_EQ(tasks[i].rounds, spec.rounds);
  }
  // Seeds vary within a point; points are contiguous.
  EXPECT_EQ(tasks[0].point_index, tasks[1].point_index);
  EXPECT_NE(tasks[0].seed, tasks[1].seed);
  EXPECT_NE(tasks[1].point_index, tasks[2].point_index);
}

TEST(ExperimentSpec, SeedRangeIsDistinctAndDeterministic) {
  const auto a = ExperimentSpec::seed_range(42, 64);
  const auto b = ExperimentSpec::seed_range(42, 64);
  EXPECT_EQ(a, b);
  std::set<std::uint64_t> unique(a.begin(), a.end());
  EXPECT_EQ(unique.size(), 64u);
  EXPECT_EQ(unique.count(0), 0u);
}

TEST(GridPoint, LiarCountRoundsAndClamps) {
  EXPECT_EQ((GridPoint{16, 0.0, MobilityPreset::kStatic}).num_liars(), 0u);
  // 14 bystanders * 0.29 = 4.06 -> 4, the paper's headline ratio.
  EXPECT_EQ((GridPoint{16, 0.29, MobilityPreset::kStatic}).num_liars(), 4u);
  EXPECT_EQ((GridPoint{16, 1.0, MobilityPreset::kStatic}).num_liars(), 14u);
  EXPECT_EQ((GridPoint{4, 0.5, MobilityPreset::kStatic}).num_liars(), 1u);
}

TEST(MobilityPresetNames, RoundTrip) {
  for (auto preset : {MobilityPreset::kStatic, MobilityPreset::kLowChurn,
                      MobilityPreset::kHighChurn}) {
    MobilityPreset parsed;
    ASSERT_TRUE(parse_mobility_preset(to_string(preset), parsed));
    EXPECT_EQ(parsed, preset);
  }
  MobilityPreset ignored;
  EXPECT_FALSE(parse_mobility_preset("vehicular", ignored));
}

void expect_identical(const std::vector<ReplicationResult>& a,
                      const std::vector<ReplicationResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].task_index, b[i].task_index);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].final_verdict, b[i].final_verdict);
    EXPECT_EQ(a[i].final_detect, b[i].final_detect);  // bitwise
    EXPECT_EQ(a[i].final_margin, b[i].final_margin);
    EXPECT_EQ(a[i].conviction_round, b[i].conviction_round);
    EXPECT_EQ(a[i].attacker_trust, b[i].attacker_trust);
    EXPECT_EQ(a[i].mean_liar_trust, b[i].mean_liar_trust);
    EXPECT_EQ(a[i].mean_honest_trust, b[i].mean_honest_trust);
    EXPECT_EQ(a[i].control_messages, b[i].control_messages);
    EXPECT_EQ(a[i].detect_per_round, b[i].detect_per_round);
  }
}

TEST(Runner, FixedSeedGridIsDeterministicAcrossRuns) {
  const auto spec = small_spec();
  Runner runner{{.threads = 1}};
  const auto first = runner.run(spec);
  const auto second = runner.run(spec);
  expect_identical(first, second);
  ASSERT_EQ(first.size(), 4u);
  for (const auto& r : first) {
    EXPECT_EQ(static_cast<std::size_t>(r.detect_per_round.size()), 3u);
    EXPECT_GT(r.control_messages, 0u);
  }
}

TEST(Runner, OneThreadAndManyThreadsAgreeBitwise) {
  const auto spec = small_spec();
  Runner serial{{.threads = 1}};
  Runner parallel{{.threads = 4}};
  const auto a = serial.run(spec);
  const auto b = parallel.run(spec);
  expect_identical(a, b);

  // ... and so do the aggregates, down to the byte.
  Aggregator agg{0.95};
  EXPECT_EQ(Aggregator::to_csv(agg.aggregate(a)),
            Aggregator::to_csv(agg.aggregate(b)));
  EXPECT_EQ(Aggregator::to_json(agg.aggregate(a)),
            Aggregator::to_json(agg.aggregate(b)));
}

TEST(Runner, ProgressCoversEveryReplication) {
  const auto spec = small_spec();
  Runner runner{{.threads = 2}};
  std::atomic<std::size_t> calls{0};
  std::atomic<std::size_t> last_total{0};
  runner.set_progress([&](std::size_t, std::size_t total) {
    ++calls;
    last_total = total;
  });
  const auto results = runner.run(spec);
  EXPECT_EQ(calls.load(), results.size());
  EXPECT_EQ(last_total.load(), results.size());
}

TEST(Runner, EffectiveThreadsClampsToTaskCount) {
  Runner runner{{.threads = 8}};
  EXPECT_EQ(runner.effective_threads(3), 3u);
  EXPECT_EQ(runner.effective_threads(100), 8u);
  Runner solo{{.threads = 1}};
  EXPECT_EQ(solo.effective_threads(100), 1u);
}

TEST(RunReplication, ZeroRoundsThrowsInsteadOfFakingAResult) {
  ReplicationTask task;
  task.point = GridPoint{8, 0.0, MobilityPreset::kStatic};
  task.rounds = 0;
  EXPECT_THROW(run_replication(task), std::invalid_argument);
}

TEST(Runner, WorkerExceptionIsRethrown) {
  // 3 nodes violates TrustExperiment's minimum and must surface, not hang.
  ReplicationTask bad;
  bad.point = GridPoint{3, 0.0, MobilityPreset::kStatic};
  std::vector<ReplicationTask> tasks(6, bad);
  for (std::size_t i = 0; i < tasks.size(); ++i) tasks[i].index = i;
  Runner runner{{.threads = 3}};
  EXPECT_THROW(runner.run(tasks), std::invalid_argument);
}

// Synthetic results with known numbers: the aggregator must reproduce
// stats::confidence_interval exactly and group by point correctly.
TEST(Aggregator, MatchesStatsConfidenceLayer) {
  const GridPoint point{16, 0.29, MobilityPreset::kStatic};
  const std::vector<double> detects{-0.8, -0.6, -0.7, -0.9};
  std::vector<ReplicationResult> results;
  for (std::size_t i = 0; i < detects.size(); ++i) {
    ReplicationResult r;
    r.task_index = i;
    r.point_index = 0;
    r.point = point;
    r.final_detect = detects[i];
    r.conviction_round = (i < 3) ? static_cast<int>(i) + 2 : -1;
    r.attacker_trust = 0.1 * static_cast<double>(i);
    r.mean_liar_trust = 0.05;
    r.mean_honest_trust = 0.5;
    r.control_messages = 100 + i;
    results.push_back(std::move(r));
  }

  Aggregator agg{0.95};
  const auto rows = agg.aggregate(results);
  ASSERT_EQ(rows.size(), 1u);
  const auto& row = rows[0];
  EXPECT_EQ(row.replications, 4u);
  EXPECT_EQ(row.convicted, 3u);
  EXPECT_DOUBLE_EQ(row.detection_rate, 0.75);

  const auto expected = stats::confidence_interval(detects, 0.95);
  EXPECT_DOUBLE_EQ(row.final_detect.mean, expected.mean);
  EXPECT_DOUBLE_EQ(row.final_detect.margin, expected.margin);

  const std::vector<double> rounds{2.0, 3.0, 4.0};
  const auto expected_rounds = stats::confidence_interval(rounds, 0.95);
  EXPECT_DOUBLE_EQ(row.conviction_round.mean, expected_rounds.mean);
  EXPECT_DOUBLE_EQ(row.conviction_round.margin, expected_rounds.margin);
}

TEST(Aggregator, NoConvictionsYieldsSentinelRound) {
  ReplicationResult r;
  r.point = GridPoint{8, 0.0, MobilityPreset::kStatic};
  r.conviction_round = -1;
  Aggregator agg{0.95};
  const auto rows = agg.aggregate(std::vector<ReplicationResult>{r});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].convicted, 0u);
  EXPECT_DOUBLE_EQ(rows[0].conviction_round.mean, -1.0);
  EXPECT_DOUBLE_EQ(rows[0].conviction_round.margin, 0.0);
  // A single sample has unknown spread; aggregates report margin 0 (not the
  // Eq. 9 max_margin sentinel, which is sized for Detect's [-1,1] domain).
  EXPECT_DOUBLE_EQ(rows[0].final_detect.margin, 0.0);
  EXPECT_DOUBLE_EQ(rows[0].control_messages.margin, 0.0);
}

TEST(Aggregator, DegradationCsvLeavesReconvergeCellEmptyWhenNoneReconverged) {
  // reconverge_mean = -1 is the "no replication re-converged" sentinel; it
  // must surface as an empty CSV cell, not as -1.000000 that would poison
  // downstream averaging.
  ReplicationResult r;
  r.point = GridPoint{8, 0.0, MobilityPreset::kStatic};
  r.down_per_round = {1};
  r.false_conv_per_round = {0};
  r.suppressed_per_round = {0};
  r.converged_per_round = {false};
  r.reconverge_rounds = -1;
  Aggregator agg{0.95};
  const auto csv = Aggregator::degradation_csv(
      agg.degradation(std::vector<ReplicationResult>{r}));
  EXPECT_EQ(csv.find("-1.000000"), std::string::npos) << csv;
  // The data row ends with ",converged_frac," and an empty final cell.
  EXPECT_NE(csv.find("0.000000,\n"), std::string::npos) << csv;

  // A replication that did re-converge still reports the mean.
  r.reconverge_rounds = 3;
  const auto csv2 = Aggregator::degradation_csv(
      agg.degradation(std::vector<ReplicationResult>{r}));
  EXPECT_NE(csv2.find("3.000000\n"), std::string::npos) << csv2;
}

TEST(Aggregator, PerRoundTrajectoryAverages) {
  const GridPoint point{8, 0.34, MobilityPreset::kStatic};
  std::vector<ReplicationResult> results;
  for (int i = 0; i < 2; ++i) {
    ReplicationResult r;
    r.point_index = 0;
    r.point = point;
    r.detect_per_round = {i == 0 ? -0.2 : -0.4, i == 0 ? -0.6 : -0.8};
    results.push_back(std::move(r));
  }
  Aggregator agg{0.95};
  const auto rows = agg.per_round(results);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].round, 1);
  EXPECT_DOUBLE_EQ(rows[0].detect.mean, -0.3);
  EXPECT_EQ(rows[1].round, 2);
  EXPECT_DOUBLE_EQ(rows[1].detect.mean, -0.7);
}

TEST(Aggregator, CsvShapeIsStable) {
  ReplicationResult r;
  r.point = GridPoint{16, 0.29, MobilityPreset::kLowChurn};
  r.final_detect = -0.5;
  Aggregator agg{0.95};
  const auto csv = Aggregator::to_csv(agg.aggregate(std::vector{r}));
  // Header + one row, 19 columns each.
  const auto lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(lines, 2);
  const auto commas_first_line =
      std::count(csv.begin(), csv.begin() + static_cast<long>(csv.find('\n')),
                 ',');
  EXPECT_EQ(commas_first_line, 18);
  EXPECT_NE(csv.find("16,0.290000,4,low"), std::string::npos);
}

}  // namespace
}  // namespace manet::runtime
