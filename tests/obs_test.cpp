// Tests for the deterministic observability layer (src/obs): the metrics
// registry (counters, gauges, histograms merged across per-thread shards),
// the flight-recorder ring, trace export, run manifests — and the golden
// guard that pins the determinism contract: enabling metrics and tracing
// must not change a single byte of the simulation's own outputs (per-round
// CSVs, audit logs), at any Runner thread count, under either engine.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/manifest.hpp"
#include "obs/obs.hpp"
#include "runtime/aggregator.hpp"
#include "runtime/runner.hpp"
#include "scenario/trust_experiment.hpp"

namespace {

using namespace manet;

// --- flight recorder -------------------------------------------------------

obs::TraceEvent instant_at(std::int64_t us) {
  obs::TraceEvent e;
  e.begin_us = e.end_us = us;
  e.name = obs::SpanName::kPipelineRound;
  e.phase = obs::EventPhase::kInstant;
  return e;
}

TEST(FlightRecorder, RetainsNewestAndCountsDropped) {
  obs::FlightRecorder ring{4};
  for (std::int64_t i = 0; i < 10; ++i) ring.record(instant_at(i));
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first of the newest four: 6, 7, 8, 9.
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(events[i].begin_us, static_cast<std::int64_t>(6 + i));
}

TEST(FlightRecorder, ExactCapacityDropsNothing) {
  obs::FlightRecorder ring{3};
  for (std::int64_t i = 0; i < 3; ++i) ring.record(instant_at(i));
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto events = ring.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.front().begin_us, 0);
  EXPECT_EQ(events.back().begin_us, 2);
}

// --- registry: recording and merging ---------------------------------------

TEST(Registry, UnboundThreadRecordsNothing) {
  EXPECT_FALSE(obs::active());
  obs::hit(obs::Hot::kPipelineLines, 100);  // must be a no-op, not a crash
  const auto c = obs::counter("manet_dead");
  const auto g = obs::gauge("manet_dead_gauge");
  const auto h = obs::histogram("manet_dead_hist", 0.0, 1.0, 4);
  c.inc();
  g.set(1.0);
  h.observe(0.5);
  obs::span(obs::SpanName::kRound, sim::Time{}, sim::Time::from_ms(1));
  obs::instant(obs::SpanName::kConviction, sim::Time{});
}

TEST(Registry, HotCountersSumAcrossThreads) {
  obs::Context ctx;
  {
    obs::Scope scope{&ctx};
    obs::hit(obs::Hot::kPipelineLines, 3);
  }
  std::thread worker{[&ctx] {
    obs::Scope scope{&ctx, 1};
    obs::hit(obs::Hot::kPipelineLines, 4);
    obs::hit(obs::Hot::kPipelineRounds);
  }};
  worker.join();
  const auto snap = ctx.snapshot();
  EXPECT_EQ(snap.counter_value(obs::hot_name(obs::Hot::kPipelineLines)), 7u);
  EXPECT_EQ(snap.counter_value(obs::hot_name(obs::Hot::kPipelineRounds)), 1u);
  EXPECT_EQ(snap.counter_value("manet_never_registered"), 0u);
}

TEST(Registry, NamedMetricsMergeAcrossShards) {
  obs::Context ctx;
  obs::Counter events;
  obs::Gauge high_water;
  obs::HistogramHandle latency;
  {
    obs::Scope scope{&ctx};
    events = obs::counter("manet_test_events_total");
    high_water = obs::gauge("manet_test_high_water");
    latency = obs::histogram("manet_test_latency", 0.0, 10.0, 5);
    events.inc(2);
    high_water.set(3.0);
    latency.observe(1.0);
  }
  std::thread worker{[&] {
    obs::Scope scope{&ctx, 1};
    events.inc(5);
    high_water.set(7.0);  // gauges merge by max
    latency.observe(9.0);
    latency.observe(-1.0);  // underflow must survive the merge
  }};
  worker.join();

  const auto snap = ctx.snapshot();
  EXPECT_EQ(snap.counter_value("manet_test_events_total"), 7u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].name, "manet_test_high_water");
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 7.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& merged = snap.histograms[0].histogram;
  EXPECT_EQ(merged.count(), 3u);
  EXPECT_EQ(merged.underflow(), 1u);
  EXPECT_EQ(merged.bin_count(0), 2u);  // 1.0 and the clamped -1.0
  EXPECT_EQ(merged.bin_count(4), 1u);  // 9.0
}

TEST(Registry, InternShapeConflictThrows) {
  obs::Context ctx;
  obs::Scope scope{&ctx};
  obs::counter("manet_test_name");
  EXPECT_THROW(obs::gauge("manet_test_name"), std::invalid_argument);
  obs::histogram("manet_test_hist", 0.0, 1.0, 4);
  EXPECT_THROW(obs::histogram("manet_test_hist", 0.0, 2.0, 4),
               std::invalid_argument);
  // Identical re-registration is idempotent, not an error.
  const auto again = obs::counter("manet_test_name");
  again.inc();
  EXPECT_EQ(ctx.snapshot().counter_value("manet_test_name"), 1u);
}

TEST(Registry, ScopeNestingRestoresPreviousBinding) {
  obs::Context outer_ctx, inner_ctx;
  obs::Scope outer{&outer_ctx};
  {
    obs::Scope inner{&inner_ctx};
    obs::hit(obs::Hot::kPipelineLines);
  }
  obs::hit(obs::Hot::kPipelineRounds);
  EXPECT_EQ(
      inner_ctx.snapshot().counter_value(obs::hot_name(obs::Hot::kPipelineLines)),
      1u);
  const auto outer_snap = outer_ctx.snapshot();
  EXPECT_EQ(outer_snap.counter_value(obs::hot_name(obs::Hot::kPipelineLines)),
            0u);
  EXPECT_EQ(outer_snap.counter_value(obs::hot_name(obs::Hot::kPipelineRounds)),
            1u);
}

TEST(Registry, SnapshotMergeFoldsDisjointAndShared) {
  obs::MetricsSnapshot a, b;
  a.counters.push_back({"alpha", 1});
  a.counters.push_back({"both", 10});
  a.gauges.push_back({"g", 2.0});
  b.counters.push_back({"both", 5});
  b.counters.push_back({"zeta", 3});
  b.gauges.push_back({"g", 9.0});
  a.merge(b);
  ASSERT_EQ(a.counters.size(), 3u);
  EXPECT_EQ(a.counter_value("alpha"), 1u);
  EXPECT_EQ(a.counter_value("both"), 15u);
  EXPECT_EQ(a.counter_value("zeta"), 3u);
  EXPECT_DOUBLE_EQ(a.gauges[0].value, 9.0);
}

TEST(Registry, CountersTextFiltersByPrefix) {
  obs::Context ctx;
  obs::Scope scope{&ctx};
  obs::hit(obs::Hot::kPipelineLines, 2);
  obs::hit(obs::Hot::kMediumUnicasts, 9);
  const auto snap = ctx.snapshot();
  const auto text = snap.counters_text("manet_pipeline_");
  EXPECT_NE(text.find("manet_pipeline_lines_total 2"), std::string::npos);
  EXPECT_EQ(text.find("manet_medium"), std::string::npos);
}

TEST(Registry, PrometheusExposition) {
  obs::Context ctx;
  obs::Scope scope{&ctx};
  obs::hit(obs::Hot::kPipelineConvictions, 4);
  const auto h = obs::histogram("manet_test_seconds", 0.0, 2.0, 2);
  h.observe(0.5);
  h.observe(1.5);
  h.observe(5.0);  // overflow, clamped into the last bucket
  const auto text = ctx.snapshot().to_prometheus("# manifest tool=test\n");
  EXPECT_EQ(text.rfind("# manifest tool=test\n", 0), 0u);  // header first
  EXPECT_NE(text.find("# TYPE manet_pipeline_convictions_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("manet_pipeline_convictions_total 4"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE manet_test_seconds histogram"),
            std::string::npos);
  // Cumulative buckets: le="1" holds 1 sample, le="2" and +Inf hold all 3
  // (the overflow sample was clamped into the top bin by Histogram::add).
  EXPECT_NE(text.find("manet_test_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("manet_test_seconds_count 3"), std::string::npos);
}

// --- tracing ---------------------------------------------------------------

TEST(Tracing, EventsSortedByDeterministicKey) {
  obs::Context::Config cfg;
  cfg.tracing = true;
  obs::Context ctx{cfg};
  {
    obs::Scope scope{&ctx};
    obs::span(obs::SpanName::kRound, sim::Time::from_ms(20),
              sim::Time::from_ms(25), 2);
    obs::instant(obs::SpanName::kConviction, sim::Time::from_ms(10), 7);
    obs::async_begin(obs::SpanName::kInvestigation, sim::Time::from_ms(5), 42);
    obs::async_end(obs::SpanName::kInvestigation, sim::Time::from_ms(15), 42);
  }
  const auto events = ctx.trace();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LE(events[i - 1].begin_us, events[i].begin_us);
  EXPECT_EQ(events.front().name, obs::SpanName::kInvestigation);
  EXPECT_EQ(events.front().phase, obs::EventPhase::kAsyncBegin);
  EXPECT_EQ(ctx.trace_dropped(), 0u);
}

TEST(Tracing, DisabledContextRecordsNoEvents) {
  obs::Context ctx;  // tracing defaults to off; metrics still record
  obs::Scope scope{&ctx};
  obs::span(obs::SpanName::kRound, sim::Time{}, sim::Time::from_ms(1));
  obs::instant(obs::SpanName::kConviction, sim::Time{});
  EXPECT_TRUE(ctx.trace().empty());
}

TEST(Tracing, RingWrapReportsDropped) {
  obs::Context::Config cfg;
  cfg.tracing = true;
  cfg.ring_capacity = 8;
  obs::Context ctx{cfg};
  {
    obs::Scope scope{&ctx};
    for (int i = 0; i < 20; ++i)
      obs::instant(obs::SpanName::kPipelineRound, sim::Time::from_us(i),
                   static_cast<std::uint64_t>(i));
  }
  const auto events = ctx.trace();
  EXPECT_EQ(events.size(), 8u);
  EXPECT_EQ(ctx.trace_dropped(), 12u);
  // The newest events survive the wrap.
  EXPECT_EQ(events.back().id, 19u);
}

TEST(Tracing, TraceJsonSmoke) {
  obs::Context::Config cfg;
  cfg.tracing = true;
  obs::Context ctx{cfg};
  {
    obs::Scope scope{&ctx};
    obs::span(obs::SpanName::kSetupConverge, sim::Time{},
              sim::Time::from_seconds(15.0));
    obs::async_begin(obs::SpanName::kInvestigation, sim::Time::from_ms(1), 9);
    obs::async_end(obs::SpanName::kInvestigation, sim::Time::from_ms(2), 9);
  }
  const auto json = obs::trace_json(ctx.trace(), 3);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("]}"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"setup_converge\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":15000000"), std::string::npos);

  const auto multi = obs::trace_json_multi({{0, ctx.trace()}, {1, {}}});
  EXPECT_EQ(multi.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(multi.find("\"pid\":0"), std::string::npos);
}

// --- run manifest ----------------------------------------------------------

TEST(Manifest, CommentHeaderAndJson) {
  obs::RunManifest m{"obs_test"};
  m.add("seed", std::uint64_t{42});
  m.add("fraction", 0.25);
  const auto header = m.comment_header();
  EXPECT_EQ(header.rfind("# manifest tool=obs_test\n", 0), 0u);
  EXPECT_NE(header.find("# manifest version="), std::string::npos);
  EXPECT_NE(header.find("# manifest seed=42\n"), std::string::npos);
  EXPECT_NE(header.find("# manifest fraction=0.25\n"), std::string::npos);
  const auto json = m.json_object();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"tool\":\"obs_test\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":\"42\""), std::string::npos);
  EXPECT_FALSE(obs::build_version().empty());
}

// --- golden guard: observability must not change simulation output ---------

runtime::ExperimentSpec guard_spec(bool observed, sim::EngineKind engine) {
  runtime::ExperimentSpec spec;
  spec.seeds = runtime::ExperimentSpec::seed_range(7, 2);
  spec.node_counts = {16};
  spec.attacker_fractions = {0.29};
  spec.rounds = 4;
  spec.engine = engine;
  spec.metrics = observed;
  spec.tracing = observed;
  return spec;
}

std::string per_round_csv(const runtime::ExperimentSpec& spec,
                          unsigned threads) {
  runtime::Runner::Config rc;
  rc.threads = threads;
  runtime::Runner runner{rc};
  const auto results = runner.run(spec);
  const runtime::Aggregator aggregator{0.95};
  return runtime::Aggregator::per_round_csv(aggregator.per_round(results));
}

TEST(GoldenGuard, SequentialCsvIdenticalWithObservabilityOn) {
  const auto engine = sim::EngineKind::kSequential;
  const auto off = per_round_csv(guard_spec(false, engine), 1);
  EXPECT_EQ(per_round_csv(guard_spec(true, engine), 1), off)
      << "enabling metrics+tracing changed the per-round CSV (threads 1)";
  EXPECT_EQ(per_round_csv(guard_spec(true, engine), 4), off)
      << "enabling metrics+tracing changed the per-round CSV (threads 4)";
}

TEST(GoldenGuard, ShardedCsvIdenticalWithObservabilityOn) {
  const auto engine = sim::EngineKind::kSharded;
  const auto off = per_round_csv(guard_spec(false, engine), 1);
  EXPECT_EQ(per_round_csv(guard_spec(true, engine), 1), off)
      << "metrics+tracing changed the sharded per-round CSV (threads 1)";
  EXPECT_EQ(per_round_csv(guard_spec(true, engine), 4), off)
      << "metrics+tracing changed the sharded per-round CSV (threads 4)";
}

TEST(GoldenGuard, MetricsSnapshotIdenticalAcrossRunnerThreads) {
  const auto spec = guard_spec(true, sim::EngineKind::kSequential);
  const auto run = [&spec](unsigned threads) {
    runtime::Runner::Config rc;
    rc.threads = threads;
    runtime::Runner runner{rc};
    const auto results = runner.run(spec);
    obs::MetricsSnapshot merged;
    for (const auto& r : results) merged.merge(r.metrics);
    return merged.to_prometheus();
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(GoldenGuard, AuditLogIdenticalWithObservabilityOn) {
  const auto record = [](bool observed) {
    scenario::TrustExperiment::Config config;
    config.seed = 7;
    config.record_audit = true;
    obs::Context::Config oc;
    oc.tracing = true;
    obs::Context ctx{oc};
    obs::Scope scope{observed ? &ctx : nullptr};
    scenario::TrustExperiment exp{config};
    exp.setup();
    exp.run_attack_rounds(3);
    return exp.audit_log();
  };
  EXPECT_EQ(record(true), record(false))
      << "observability changed the recorded audit-log bytes";
}

}  // namespace
