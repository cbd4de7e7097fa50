// Forwarding-audit (grayhole) behavioural-equivalence suite.
//
// Three equivalence axes, each over the §V-style grayhole experiment
// (multi-hop grid, node 1 a WILL_ALWAYS MPR dropping the floods it
// attracted):
//   - live vs replayed audit log (the manet_detect contract), 50 seeds;
//   - worker-thread counts, on both the Runner axis and the psim sharded
//     engine axis;
//   - pristine run vs checkpoint/restore continuation.
// Plus the detection-quality matrix over drop-fraction x liar-fraction,
// byte-compared against a committed precision/recall fixture, and unit
// tests of the ForwardingAuditor tally mechanics.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/audit_event.hpp"
#include "core/detector.hpp"
#include "core/pipeline.hpp"
#include "core/signatures_forwarding.hpp"
#include "logging/format.hpp"
#include "runtime/aggregator.hpp"
#include "runtime/runner.hpp"
#include "scenario/trust_experiment.hpp"

namespace manet {
namespace {

using net::NodeId;
using scenario::TrustExperiment;

// --- ForwardingAuditor unit tests -----------------------------------------

using logging::Event;
using Ids = std::vector<NodeId>;

template <typename... Values>
logging::LogRecord record_at(double seconds, Event event,
                             const Values&... values) {
  return {sim::Time::from_seconds(seconds), NodeId{0}, event, values...};
}

logging::LogRecord hello_from_n1(std::int64_t willingness) {
  return record_at(1.0, Event::kHelloRecv, NodeId{1}, 1, Ids{}, Ids{}, 1,
                   willingness);
}

/// A neighborhood where n1 advertises WILL_ALWAYS; with n1 our MPR (the
/// default set of read_and_close), it is audited on third-party floods.
std::vector<logging::LogRecord> audited_mpr_prelude() {
  return {hello_from_n1(7)};
}

void add_flood(std::vector<logging::LogRecord>& records, double seconds,
               NodeId orig, std::int64_t seq) {
  records.push_back(
      record_at(seconds, Event::kTcRecv, orig, orig, seq, 0, Ids{}, 1));
}

void add_echo(std::vector<logging::LogRecord>& records, double seconds,
              NodeId by, NodeId orig, std::int64_t seq) {
  records.push_back(record_at(seconds, Event::kFwdEcho, by, orig, seq));
}

/// Reads `records` with our MPR set `mprs`, then closes at `seconds`.
std::vector<core::ForwardAudit> read_and_close(
    core::ForwardingAuditor& auditor, double seconds,
    const std::vector<logging::LogRecord>& records,
    const Ids& mprs = {NodeId{1}}) {
  for (const auto& record : records) auditor.read(record, mprs);
  return auditor.close(sim::Time::from_seconds(seconds));
}

TEST(ForwardingAuditor, SilentAlwaysMprFailsTheWindow) {
  core::ForwardingAuditor auditor;
  auto records = audited_mpr_prelude();
  for (std::int64_t seq = 1; seq <= 3; ++seq)
    add_flood(records, 2.0 + 0.1 * static_cast<double>(seq), NodeId{5}, seq);

  // n1 never re-forwards: after the flood timeout the window tallies
  // expected=3 forwarded=0, and that tally fails.
  const auto tallies = read_and_close(auditor, 10.0, records);
  ASSERT_EQ(tallies.size(), 1u);
  EXPECT_EQ(tallies[0].mpr, NodeId{1});
  EXPECT_EQ(tallies[0].expected, 3u);
  EXPECT_EQ(tallies[0].forwarded, 0u);
  EXPECT_TRUE(auditor.fails(tallies[0]));
}

TEST(ForwardingAuditor, CreditedMprPassesTheWindow) {
  core::ForwardingAuditor auditor;
  auto records = audited_mpr_prelude();
  for (std::int64_t seq = 1; seq <= 4; ++seq) {
    const double at = 2.0 + 0.5 * static_cast<double>(seq);
    add_flood(records, at, NodeId{5}, seq);
    add_echo(records, at + 0.05, NodeId{1}, NodeId{5}, seq);
  }

  const auto tallies = read_and_close(auditor, 10.0, records);
  ASSERT_EQ(tallies.size(), 1u);
  EXPECT_EQ(tallies[0].expected, 4u);
  EXPECT_EQ(tallies[0].forwarded, 4u);
  EXPECT_FALSE(auditor.fails(tallies[0])) << "a forwarder passes";
}

TEST(ForwardingAuditor, MinExpectedGatesTheFailure) {
  // Two closed floods are below kMinExpected (3): tallied, never flagged —
  // transitional MPR-selector windows must not convict.
  core::ForwardingAuditor auditor;
  auto records = audited_mpr_prelude();
  add_flood(records, 2.0, NodeId{5}, 1);
  add_flood(records, 2.1, NodeId{5}, 2);

  const auto tallies = read_and_close(auditor, 10.0, records);
  ASSERT_EQ(tallies.size(), 1u);
  EXPECT_EQ(tallies[0].expected, 2u);
  EXPECT_FALSE(auditor.fails(tallies[0]));
}

TEST(ForwardingAuditor, DefaultWillingnessMprIsNeverAudited) {
  // Same floods, but n1 advertises default willingness: the audited set is
  // empty, so no tally and no possible false conviction.
  core::ForwardingAuditor auditor;
  std::vector<logging::LogRecord> records{hello_from_n1(3)};
  for (std::int64_t seq = 1; seq <= 5; ++seq)
    add_flood(records, 2.0 + 0.1 * static_cast<double>(seq), NodeId{5}, seq);

  EXPECT_TRUE(read_and_close(auditor, 10.0, records).empty());
}

TEST(ForwardingAuditor, OriginatorIsExemptFromItsOwnFlood) {
  core::ForwardingAuditor auditor;
  auto records = audited_mpr_prelude();
  // n1 originates the flood itself: its own emission is not a forward, so
  // the audited set for this flood is empty.
  add_flood(records, 2.0, NodeId{1}, 1);
  EXPECT_TRUE(read_and_close(auditor, 10.0, records).empty());
}

TEST(ForwardingAuditor, PersistRestoreCarriesPendingFloods) {
  // Persist mid-stream: floods 1/2 are already closed and flushed, flood 3
  // is still pending with one credit. The restored twin must tally flood 3
  // exactly as the original does.
  core::ForwardingAuditor auditor;
  auto records = audited_mpr_prelude();
  add_flood(records, 2.0, NodeId{5}, 1);
  add_flood(records, 2.1, NodeId{5}, 2);
  add_flood(records, 8.0, NodeId{5}, 3);
  add_echo(records, 8.1, NodeId{1}, NodeId{5}, 3);
  const auto first = read_and_close(auditor, 9.0, records);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].expected, 2u);  // floods 1 and 2, never forwarded
  EXPECT_EQ(first[0].forwarded, 0u);

  core::ForwardingAuditor twin;
  twin.restore(auditor.persist());

  const auto a = auditor.close(sim::Time::from_seconds(20.0));
  const auto b = twin.close(sim::Time::from_seconds(20.0));
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].expected, 1u);  // flood 3, credited via the echo
  EXPECT_EQ(a[0].forwarded, 1u);
  EXPECT_EQ(b[0].expected, a[0].expected);
  EXPECT_EQ(b[0].forwarded, a[0].forwarded);
  EXPECT_EQ(twin.fails(b[0]), auditor.fails(a[0]));
}

// --- grayhole behavioural equivalence -------------------------------------

TrustExperiment::Config grayhole_config(std::uint64_t seed,
                                        double drop_fraction = 1.0,
                                        std::size_t liars = 0) {
  TrustExperiment::Config config;
  config.attack = TrustExperiment::AttackKind::kGrayhole;
  config.drop_fraction = drop_fraction;
  config.seed = seed;
  config.num_nodes = 16;
  config.num_liars = liars;
  return config;
}

struct Csvs {
  std::string verdicts;
  std::string trust;
};

Csvs csvs_of(TrustExperiment& exp) {
  return {core::verdict_csv(exp.detector().reports()),
          core::trust_csv(exp.detector().trust_store())};
}

TEST(GrayholeEquivalence, FiftySeedsReplayByteIdentically) {
  // The manet_detect contract on the grayhole workload: the recorded audit
  // stream (now carrying kForwardAudit frames) fed into a fresh pipeline
  // reproduces the live verdict and trust CSVs byte for byte.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    auto config = grayhole_config(seed);
    config.record_audit = true;
    TrustExperiment exp{config};
    exp.setup();
    const int rounds = 3;
    for (int r = 0; r < rounds; ++r) exp.run_round();
    exp.cease_attack();
    exp.run_idle_round();
    const auto live = csvs_of(exp);
    const auto bytes = exp.audit_log();
    ASSERT_FALSE(bytes.empty()) << "seed " << seed;

    core::AuditStreamReader stream{bytes};
    auto pipeline = core::pipeline_from_header(stream.header());
    core::AuditEvent event;
    std::uint64_t audits = 0;
    while (stream.next(event)) {
      if (event.kind == logging::AuditFrame::kForwardAudit) ++audits;
      pipeline.consume(event);
    }
    EXPECT_GT(audits, 0u) << "seed " << seed;
    ASSERT_EQ(core::verdict_csv(pipeline.reports()), live.verdicts)
        << "seed " << seed;
    ASSERT_EQ(core::trust_csv(pipeline.trust_store()), live.trust)
        << "seed " << seed;
  }
}

TEST(GrayholeEquivalence, RunnerThreadCountsAggregateIdentically) {
  // 50 seeds through the Runner at 1 and 4 workers: the aggregate CSV (and
  // therefore every per-replication result slot) must be byte-identical.
  runtime::ExperimentSpec spec;
  spec.seeds = runtime::ExperimentSpec::seed_range(42, 50);
  spec.node_counts = {16};
  spec.attacker_fractions = {0.25};
  spec.rounds = 6;
  spec.attack = TrustExperiment::AttackKind::kGrayhole;

  std::string csvs[2];
  const unsigned threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    runtime::Runner runner{runtime::Runner::Config{threads[i]}};
    const auto results = runner.run(spec);
    const runtime::Aggregator aggregator{0.95};
    csvs[i] = runtime::Aggregator::to_csv(aggregator.aggregate(results));
  }
  EXPECT_EQ(csvs[0], csvs[1]);
}

TEST(GrayholeEquivalence, ShardedEngineIsThreadAndShardInvariant) {
  // The psim contract extends to the grayhole workload: sharded runs are
  // byte-identical for any (engine_threads, shards) pair.
  for (std::uint64_t seed : {3u, 11u, 27u}) {
    Csvs baseline;
    bool first = true;
    for (const auto& [threads, shards] :
         std::vector<std::pair<unsigned, unsigned>>{{1, 2}, {4, 2}, {4, 4}}) {
      auto config = grayhole_config(seed);
      config.engine = sim::EngineKind::kSharded;
      config.engine_threads = threads;
      config.shards = shards;
      TrustExperiment exp{config};
      exp.setup();
      const int rounds = 4;
      for (int r = 0; r < rounds; ++r) exp.run_round();
      const auto run = csvs_of(exp);
      if (first) {
        baseline = run;
        first = false;
        EXPECT_FALSE(baseline.verdicts.empty());
      } else {
        ASSERT_EQ(run.verdicts, baseline.verdicts)
            << "seed " << seed << " threads " << threads << " shards "
            << shards;
        ASSERT_EQ(run.trust, baseline.trust)
            << "seed " << seed << " threads " << threads << " shards "
            << shards;
      }
    }
  }
}

/// Full-precision fingerprint of one grayhole round: every field that
/// reaches any CSV plus the grayhole telemetry, so "fingerprints equal" ==
/// "per-round output byte-identical" (mirrors checkpoint_test).
std::string round_fingerprint(const TrustExperiment::RoundSnapshot& s) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "r%d at=%lld d=%.17g m=%.17g v=%d inv=%zu aud=%zu drop=%llu "
                "fc=%llu",
                s.round, static_cast<long long>(s.at.us()), s.detect, s.margin,
                static_cast<int>(s.verdict), s.investigations, s.audits,
                static_cast<unsigned long long>(s.dropped_control),
                static_cast<unsigned long long>(s.false_convictions));
  std::string out = buf;
  for (const auto& [id, t] : s.trust) {
    std::snprintf(buf, sizeof buf, " %s=%.17g", id.to_string().c_str(), t);
    out += buf;
  }
  return out;
}

TEST(GrayholeEquivalence, CheckpointRestoreContinuesByteIdentically) {
  // Pristine 6-round run vs 3 rounds + checkpoint (format v2, carrying the
  // auditor's pending floods and the drop attack's RNG/duty state) +
  // restore + 3 rounds. The checkpoint surface deliberately skips the
  // historical report ring, so equivalence is pinned the way
  // checkpoint_test pins it: post-restore round fingerprints plus the
  // final trust CSV.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto config = grayhole_config(seed);

    TrustExperiment pristine{config};
    pristine.setup();
    std::vector<std::string> want;
    for (int r = 0; r < 6; ++r) {
      const auto snap = pristine.run_round();
      if (r >= 3) want.push_back(round_fingerprint(snap));
    }

    TrustExperiment saver{config};
    saver.setup();
    for (int r = 0; r < 3; ++r) saver.run_round();
    const auto bytes = saver.save_checkpoint();
    auto restored = TrustExperiment::restore_checkpoint(config, bytes);
    for (int r = 0; r < 3; ++r) {
      const auto got = round_fingerprint(restored->run_round());
      ASSERT_EQ(got, want[static_cast<std::size_t>(r)])
          << "seed " << seed << " post-restore round " << r;
    }
    ASSERT_EQ(core::trust_csv(restored->detector().trust_store()),
              core::trust_csv(pristine.detector().trust_store()))
        << "seed " << seed;
  }
}

TEST(GrayholeEquivalence, FullDropAttackerConvictedLiarsNotwithstanding) {
  // The soundness anchor as a direct assertion (the matrix fixture pins
  // the same property across the grid): a blackhole node is convicted and
  // nobody else ever is, even with a quarter of the bystanders lying.
  auto config = grayhole_config(7, 1.0, /*liars=*/4);
  TrustExperiment exp{config};
  exp.setup();
  bool convicted = false;
  std::uint64_t false_convictions = 0;
  const int rounds = 12;
  for (int r = 0; r < rounds; ++r) {
    const auto snap = exp.run_round();
    if (snap.verdict == trust::Verdict::kIntruder) convicted = true;
    false_convictions = snap.false_convictions;
  }
  EXPECT_TRUE(convicted);
  EXPECT_EQ(false_convictions, 0u);
}

// --- detection-quality matrix (golden fixture) ----------------------------

std::string matrix_fixture_path() {
  return std::string{MANET_FIXTURE_DIR} + "/golden_grayhole_matrix.csv";
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << "cannot open fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(GrayholeMatrix, PrecisionRecallMatchesFixture) {
  // drop-fraction x liar-fraction sweep, 8 seeds per cell. Hard floors
  // first (full-drop attackers always convicted, honest bystanders never),
  // then the byte-compare pins the exact precision/recall surface —
  // including the designed blind spot: drop 0.2 sits under kFailRatio 0.5,
  // so the audit never flags it.
  const double drop_fractions[] = {0.2, 0.5, 1.0};
  const double liar_fractions[] = {0.0, 0.25};
  const auto seeds = runtime::ExperimentSpec::seed_range(2024, 8);

  std::ostringstream csv;
  csv << "drop_fraction,liar_fraction,replications,convicted,"
         "false_convictions,precision,recall\n";
  char line[160];
  for (double drop : drop_fractions) {
    for (double liar : liar_fractions) {
      std::vector<runtime::ReplicationTask> tasks;
      for (std::size_t s = 0; s < seeds.size(); ++s) {
        runtime::ReplicationTask task;
        task.index = s;
        task.point = runtime::GridPoint{16, liar,
                                        runtime::MobilityPreset::kStatic};
        task.seed = seeds[s];
        task.rounds = 12;
        task.attack = TrustExperiment::AttackKind::kGrayhole;
        task.drop_fraction = drop;
        tasks.push_back(task);
      }
      runtime::Runner runner{runtime::Runner::Config{4}};
      const auto results = runner.run(tasks);

      std::uint64_t convicted = 0, false_convictions = 0;
      for (const auto& r : results) {
        if (r.conviction_round >= 0) ++convicted;
        false_convictions += r.false_convictions;
      }
      EXPECT_EQ(false_convictions, 0u)
          << "honest node convicted at drop " << drop << " liar " << liar;
      if (drop == 1.0) {
        EXPECT_EQ(convicted, seeds.size())
            << "full-drop attacker escaped at liar " << liar;
      }

      const auto tp = static_cast<double>(convicted);
      const auto fp = static_cast<double>(false_convictions);
      const double precision = tp + fp > 0.0 ? tp / (tp + fp) : 1.0;
      const double recall = tp / static_cast<double>(seeds.size());
      std::snprintf(line, sizeof line, "%.6f,%.6f,%zu,%llu,%llu,%.6f,%.6f\n",
                    drop, liar, seeds.size(),
                    static_cast<unsigned long long>(convicted),
                    static_cast<unsigned long long>(false_convictions),
                    precision, recall);
      csv << line;
    }
  }

  if (std::getenv("MANET_REGEN_FIXTURES") != nullptr) {
    std::ofstream out{matrix_fixture_path(), std::ios::binary};
    out << csv.str();
    ASSERT_TRUE(out.good()) << "cannot regenerate " << matrix_fixture_path();
    GTEST_SKIP() << "fixture regenerated, not compared";
  }
  EXPECT_EQ(csv.str(), read_file(matrix_fixture_path()))
      << "grayhole precision/recall surface diverged from the committed "
         "fixture; if intentional, regenerate per tests/fixtures/README.md";
}

}  // namespace
}  // namespace manet
