// Golden-trace regression: a small fixed-seed 16-node scenario sweep must
// reproduce the committed per-round detection CSV byte for byte. This pins
// the entire stack — RNG draw order, event ordering, Medium delivery order
// (through the shared per-cell receiver snapshots), trust arithmetic and CSV
// formatting — so any fast-path PR that silently changes a trace fails
// here even if every unit invariant still holds.
//
// If a change is *supposed* to alter traces (a semantic change, not an
// optimization), regenerate the fixture with
// tests/fixtures/README.md's command and justify the diff in the PR.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "runtime/aggregator.hpp"
#include "runtime/runner.hpp"

namespace {

using namespace manet;

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << "cannot open fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The exact spec the fixture was recorded with. Keep in sync with
/// tests/fixtures/README.md.
runtime::ExperimentSpec golden_spec() {
  runtime::ExperimentSpec spec;
  spec.seeds = runtime::ExperimentSpec::seed_range(2024, 4);
  spec.node_counts = {16};
  spec.attacker_fractions = {0.0, 0.29};
  spec.mobility_presets = {runtime::MobilityPreset::kStatic,
                           runtime::MobilityPreset::kLowChurn};
  spec.rounds = 6;
  return spec;
}

std::string golden_fixture_path() {
  return std::string{MANET_FIXTURE_DIR} + "/golden_per_round_16node.csv";
}

TEST(GoldenTrace, PerRoundDetectionCsvMatchesFixture) {
  const auto expected = read_file(golden_fixture_path());
  ASSERT_FALSE(expected.empty());

  runtime::Runner::Config rc;
  rc.threads = 1;
  runtime::Runner runner{rc};
  const auto results = runner.run(golden_spec());

  const runtime::Aggregator aggregator{0.95};
  const auto actual =
      runtime::Aggregator::per_round_csv(aggregator.per_round(results));

  EXPECT_EQ(actual, expected)
      << "per-round detection trace diverged from the committed fixture; "
         "if this change is intentionally trace-altering, regenerate per "
         "tests/fixtures/README.md";
}

// The same replications sharded across 4 workers must aggregate to the
// same bytes — the Runner's determinism contract, pinned against the
// fixture rather than against a sibling run.
TEST(GoldenTrace, ThreadCountDoesNotChangeTheTrace) {
  const auto expected = read_file(golden_fixture_path());

  runtime::Runner::Config rc;
  rc.threads = 4;
  runtime::Runner runner{rc};
  const auto results = runner.run(golden_spec());

  const runtime::Aggregator aggregator{0.95};
  const auto actual =
      runtime::Aggregator::per_round_csv(aggregator.per_round(results));

  EXPECT_EQ(actual, expected);
}

}  // namespace
