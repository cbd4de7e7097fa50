// Tests for the audit-event stream seam: the binary audit-log wire format
// (frame round trips and every corruption path, mirroring the checkpoint
// codec tests), and the live-vs-replay equivalence guarantee — a recorded
// run fed back through a fresh DetectionPipeline must reproduce verdicts,
// conviction rounds and trust trajectories byte for byte across seeds,
// idle-decay phases and faulted runs.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "byte_digest.hpp"
#include "core/audit_event.hpp"
#include "obs/obs.hpp"
#include "core/detector.hpp"
#include "core/pipeline.hpp"
#include "faults/fault_plan.hpp"
#include "logging/audit_log.hpp"
#include "scenario/trust_experiment.hpp"

namespace manet {
namespace {

using net::NodeId;

using core::AuditEvent;
using core::AuditHeader;
using core::AuditStreamReader;
using logging::AuditError;
using logging::AuditFrame;
using logging::AuditReader;
using logging::AuditWriter;
using scenario::TrustExperiment;

// --- wire format ----------------------------------------------------------

core::PipelineConfig sample_config() {
  core::PipelineConfig c;
  c.self = NodeId{0};
  c.trust_update_min_detect = 0.15;
  c.liveness_window = sim::Duration::from_seconds(10.0);
  c.decay_unresponsive = true;
  return c;
}

std::vector<std::uint8_t> sample_log() {
  AuditWriter w;
  AuditHeader header;
  header.config = sample_config();
  header.trust_rows = {{NodeId{1}, 0.25}, {NodeId{2}, 0.7}};
  core::write_audit_header(w, header);

  logging::LogRecord rec;
  rec.time = sim::Time::from_ms(1500);
  rec.node = NodeId{0};
  rec.event = "hello_recv";
  rec.with("from", NodeId{2}).with("seq", std::int64_t{7});
  w.line(rec);

  core::AuditRound round;
  round.query.investigation_id = 3;
  round.query.suspect = NodeId{1};
  round.query.subject = NodeId{5};
  round.query.claimed_up = true;
  round.own_observation = -1.0;
  round.answers = {{NodeId{2}, -1.0, true}, {NodeId{3}, 0.0, false}};
  round.timeouts = 1;
  round.tags = {core::EvidenceTag::kE5AdvertisesNonNeighbor};
  core::write_round_frame(w, sim::Time::from_ms(2000), round);

  core::write_decay_frame(w, sim::Time::from_ms(3000));
  return w.take();
}

TEST(AuditWire, HeaderAndFramesRoundTrip) {
  const auto bytes = sample_log();
  AuditStreamReader stream{bytes};

  const auto& header = stream.header();
  EXPECT_EQ(header.config.self, NodeId{0});
  EXPECT_DOUBLE_EQ(header.config.trust_update_min_detect, 0.15);
  EXPECT_EQ(header.config.liveness_window.us(),
            sim::Duration::from_seconds(10.0).us());
  EXPECT_TRUE(header.config.decay_unresponsive);
  ASSERT_EQ(header.trust_rows.size(), 2u);
  EXPECT_EQ(header.trust_rows[0].first, NodeId{1});
  EXPECT_DOUBLE_EQ(header.trust_rows[0].second, 0.25);

  AuditEvent event;
  ASSERT_TRUE(stream.next(event));
  EXPECT_EQ(event.kind, AuditFrame::kLine);
  EXPECT_EQ(event.line.event, "hello_recv");
  EXPECT_EQ(event.line.node_field("from"), NodeId{2});
  EXPECT_EQ(event.line.int_field("seq"), 7);

  ASSERT_TRUE(stream.next(event));
  EXPECT_EQ(event.kind, AuditFrame::kRound);
  EXPECT_EQ(event.time.us(), sim::Time::from_ms(2000).us());
  EXPECT_EQ(event.round.query.suspect, NodeId{1});
  EXPECT_EQ(event.round.query.subject, NodeId{5});
  EXPECT_DOUBLE_EQ(event.round.own_observation, -1.0);
  ASSERT_EQ(event.round.answers.size(), 2u);
  EXPECT_EQ(event.round.answers[0].responder, NodeId{2});
  EXPECT_TRUE(event.round.answers[0].answered);
  EXPECT_FALSE(event.round.answers[1].answered);
  EXPECT_EQ(event.round.timeouts, 1u);
  ASSERT_EQ(event.round.tags.size(), 1u);
  EXPECT_EQ(event.round.tags[0], core::EvidenceTag::kE5AdvertisesNonNeighbor);

  ASSERT_TRUE(stream.next(event));
  EXPECT_EQ(event.kind, AuditFrame::kDecay);
  EXPECT_EQ(event.time.us(), sim::Time::from_ms(3000).us());

  EXPECT_FALSE(stream.next(event));  // clean end of stream
}

void expect_whole_stream_throws(const std::vector<std::uint8_t>& bytes) {
  EXPECT_THROW(
      {
        AuditStreamReader stream{bytes};
        AuditEvent event;
        while (stream.next(event)) {
        }
      },
      AuditError);
}

TEST(AuditWire, RejectsCorruptMagic) {
  auto bytes = sample_log();
  bytes[0] ^= 0xFF;
  expect_whole_stream_throws(bytes);
}

TEST(AuditWire, RejectsVersionSkew) {
  auto bytes = sample_log();
  bytes[4] += 1;  // version field, little-endian low byte
  expect_whole_stream_throws(bytes);
}

TEST(AuditWire, RejectsTruncationAtEveryLength) {
  // The format guarantees a prefix ending at a frame boundary is a valid
  // log; a prefix ending anywhere else must throw, never read past the
  // end or silently succeed mid-frame.
  const auto bytes = sample_log();
  std::vector<std::size_t> frame_boundaries;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    bool threw = false;
    std::size_t frames = 0;
    try {
      AuditStreamReader stream{prefix};
      AuditEvent event;
      while (stream.next(event)) ++frames;
    } catch (const AuditError&) {
      threw = true;
    }
    if (!threw) {
      // Only frame boundaries may parse cleanly — and then strictly fewer
      // frames than the full log holds.
      EXPECT_LT(frames, 3u) << "prefix length " << len;
      frame_boundaries.push_back(len);
    }
  }
  // Exactly the three frame boundaries after the header survive (header
  // end, after-line, after-round); everything else throws.
  EXPECT_EQ(frame_boundaries.size(), 3u);
}

TEST(AuditWire, RejectsTrailingGarbage) {
  auto bytes = sample_log();
  bytes.push_back(0x42);
  expect_whole_stream_throws(bytes);
}

TEST(AuditWire, RejectsUnknownFrameKind) {
  AuditWriter w;
  AuditHeader header;
  header.config = sample_config();
  core::write_audit_header(w, header);
  const auto header_size = w.buffer().size();
  core::write_decay_frame(w, sim::Time::from_ms(1000));
  auto log = w.take();
  log[header_size] = 0x7F;  // the frame's kind byte: not a valid AuditFrame
  expect_whole_stream_throws(log);
}

TEST(AuditWire, RejectsPayloadSizeMismatch) {
  AuditWriter w;
  AuditHeader header;
  header.config = sample_config();
  core::write_audit_header(w, header);
  auto log = w.buffer();
  const auto header_size = log.size();
  core::write_decay_frame(w, sim::Time::from_ms(1000));
  log = w.take();
  // Inflate the size prefix: the payload decoder will stop short of the
  // declared end, which end_frame must treat as corruption.
  log[header_size + 1] += 4;  // size prefix follows the kind byte
  log.insert(log.end(), 4, 0);
  expect_whole_stream_throws(log);
}

TEST(AuditWire, UnreadableLineIsACorruptLog) {
  // The frame decodes, but the pipeline cannot read the hello_recv's
  // sender: that is a corrupt log (manet_detect exits 2), not a bad
  // argument.
  AuditWriter w;
  AuditHeader header;
  header.config = sample_config();
  core::write_audit_header(w, header);
  logging::LogRecord rec;
  rec.time = sim::Time::from_ms(1500);
  rec.node = NodeId{0};
  rec.event = "hello_recv";
  rec.with("from", "x2");
  w.line(rec);
  const auto bytes = w.take();
  AuditStreamReader stream{bytes};
  auto pipeline = core::pipeline_from_header(stream.header());
  AuditEvent event;
  ASSERT_TRUE(stream.next(event));
  EXPECT_THROW(pipeline.consume(event), AuditError);
}

TEST(AuditWire, RejectsHeaderConfigThePipelineRefuses) {
  // Each field decodes, but the pipeline could not be built from it or
  // would throw at its first decision: a corrupt header, not a bad
  // argument (manet_detect exits 2).
  auto bad_trust = sample_config();
  bad_trust.trust_params.min_trust = bad_trust.trust_params.max_trust;
  auto bad_level = sample_config();
  bad_level.decision.confidence_level = 1.5;
  for (const auto& config : {bad_trust, bad_level}) {
    AuditWriter w;
    AuditHeader header;
    header.config = config;
    core::write_audit_header(w, header);
    expect_whole_stream_throws(w.take());
  }
}

// --- kForwardAudit frame (format version 2) -------------------------------

std::vector<std::uint8_t> forward_audit_log() {
  AuditWriter w;
  AuditHeader header;
  header.config = sample_config();
  core::write_audit_header(w, header);
  // Tallies are plain u64s, not count(): values far beyond any plausible
  // payload size must survive the round trip.
  core::write_forward_audit_frame(
      w, sim::Time::from_ms(2500),
      core::ForwardAudit{NodeId{9}, (1ull << 40) + 7, 1ull << 33});
  core::write_forward_audit_frame(w, sim::Time::from_ms(3500),
                                  core::ForwardAudit{NodeId{2}, 5, 0});
  return w.take();
}

TEST(AuditWire, ForwardAuditFrameRoundTrips) {
  AuditStreamReader stream{forward_audit_log()};
  AuditEvent event;
  ASSERT_TRUE(stream.next(event));
  EXPECT_EQ(event.kind, AuditFrame::kForwardAudit);
  EXPECT_EQ(event.time.us(), sim::Time::from_ms(2500).us());
  EXPECT_EQ(event.audit.mpr, NodeId{9});
  EXPECT_EQ(event.audit.expected, (1ull << 40) + 7);
  EXPECT_EQ(event.audit.forwarded, 1ull << 33);
  ASSERT_TRUE(stream.next(event));
  EXPECT_EQ(event.kind, AuditFrame::kForwardAudit);
  EXPECT_EQ(event.audit.mpr, NodeId{2});
  EXPECT_EQ(event.audit.expected, 5u);
  EXPECT_EQ(event.audit.forwarded, 0u);
  EXPECT_FALSE(stream.next(event));
}

TEST(AuditWire, ForwardAuditReEncodesByteIdentically) {
  // Decode-then-re-encode reproduces the original bytes exactly — the
  // frame codec is a bijection, so record/replay cannot drift.
  const auto bytes = forward_audit_log();
  AuditStreamReader stream{bytes};
  AuditWriter w;
  AuditHeader header;
  header.config = sample_config();
  core::write_audit_header(w, header);
  AuditEvent event;
  while (stream.next(event)) {
    ASSERT_EQ(event.kind, AuditFrame::kForwardAudit);
    core::write_forward_audit_frame(w, event.time, event.audit);
  }
  EXPECT_EQ(w.take(), bytes);
}

TEST(AuditWire, ForwardAuditTruncationRejectedAtEveryLength) {
  const auto bytes = forward_audit_log();
  std::vector<std::size_t> frame_boundaries;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    bool threw = false;
    std::size_t frames = 0;
    try {
      AuditStreamReader stream{prefix};
      AuditEvent event;
      while (stream.next(event)) ++frames;
    } catch (const AuditError&) {
      threw = true;
    }
    if (!threw) {
      EXPECT_LT(frames, 2u) << "prefix length " << len;
      frame_boundaries.push_back(len);
    }
  }
  // Exactly the header end and the first frame's end parse cleanly;
  // every cut inside a kForwardAudit frame throws.
  EXPECT_EQ(frame_boundaries.size(), 2u);
}

TEST(AuditWire, ForwardAuditVersionSkewRejected) {
  // Version 2 introduced the frame kind; the reader's exact-version rule
  // means a v3-stamped log is rejected outright, never half-parsed.
  auto bytes = forward_audit_log();
  bytes[4] += 1;  // version field, little-endian low byte
  expect_whole_stream_throws(bytes);
}

TEST(AuditWire, ForwardAuditCarriesNoTrustUpdate) {
  // Structural replay guarantee: consuming kForwardAudit frames moves no
  // trust and emits no report — convictions flow only through kRound, so
  // record/replay verdict CSVs cannot diverge on audit traffic.
  AuditStreamReader stream{forward_audit_log()};
  auto pipeline = core::pipeline_from_header(stream.header());
  const auto before = core::trust_csv(pipeline.trust_store());
  AuditEvent event;
  while (stream.next(event)) pipeline.consume(event);
  EXPECT_EQ(core::trust_csv(pipeline.trust_store()), before);
  EXPECT_TRUE(pipeline.reports().empty());
  ASSERT_EQ(pipeline.forward_audits().size(), 2u);
  EXPECT_EQ(pipeline.forward_audits()[0].audit.mpr, NodeId{9});
}

TEST(AuditWire, PipelineFromHeaderRestoresTrustSnapshot) {
  AuditHeader header;
  header.config = sample_config();
  header.trust_rows = {{NodeId{3}, 0.42}};
  auto pipeline = core::pipeline_from_header(header);
  EXPECT_DOUBLE_EQ(pipeline.trust_store().trust(NodeId{3}), 0.42);
  EXPECT_EQ(pipeline.config().self, NodeId{0});
}

// --- live-vs-replay equivalence -------------------------------------------

struct Recorded {
  std::vector<std::uint8_t> bytes;
  std::string verdicts;
  std::string trust;
  /// counters_text("manet_pipeline_") of the live run's metrics registry —
  /// diffed verbatim against the replay's (manet_detect's --metrics
  /// equivalence surface).
  std::string pipeline_counters;
};

Recorded record_run(std::uint64_t seed, int rounds, int idle,
                    faults::FaultPlan plan = {}) {
  TrustExperiment::Config config;
  config.seed = seed;
  config.num_nodes = 16;
  config.num_liars = 4;
  config.rounds = rounds;
  config.record_audit = true;
  config.fault_plan = std::move(plan);
  obs::Context obs_ctx;
  obs::Scope obs_scope{&obs_ctx};
  TrustExperiment exp{config};
  exp.setup();
  for (int r = 0; r < rounds; ++r) {
    if (exp.faulted())
      exp.run_churn_round();
    else
      exp.run_round();
  }
  if (idle > 0) {
    exp.cease_attack();
    for (int r = 0; r < idle; ++r) exp.run_idle_round();
  }
  // Flush the log tail so the live kPipelineLines counter covers every
  // frame the recorded stream carries (manet_detect record does the same).
  exp.detector().feed_log_growth();
  return {exp.audit_log(), core::verdict_csv(exp.detector().reports()),
          core::trust_csv(exp.detector().trust_store()),
          obs_ctx.snapshot().counters_text("manet_pipeline_")};
}

struct Replayed {
  std::string verdicts;
  std::string trust;
  std::string pipeline_counters;
};

Replayed replay(const std::vector<std::uint8_t>& bytes) {
  obs::Context obs_ctx;
  obs::Scope obs_scope{&obs_ctx};
  AuditStreamReader stream{bytes};
  auto pipeline = core::pipeline_from_header(stream.header());
  AuditEvent event;
  while (stream.next(event)) pipeline.consume(event);
  return {core::verdict_csv(pipeline.reports()),
          core::trust_csv(pipeline.trust_store()),
          obs_ctx.snapshot().counters_text("manet_pipeline_")};
}

TEST(AuditReplay, FiftySeedsReplayByteIdentically) {
  // The tentpole guarantee: for every seed, feeding the recorded stream
  // into a fresh pipeline reproduces the live run's canonical CSVs byte
  // for byte — verdicts (incl. conviction rounds, intervals, tags) and the
  // final trust table with full %.17g precision.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto live = record_run(seed, /*rounds=*/3, /*idle=*/0);
    ASSERT_FALSE(live.bytes.empty()) << "seed " << seed;
    const auto [verdicts, trust, counters] = replay(live.bytes);
    ASSERT_EQ(verdicts, live.verdicts) << "seed " << seed;
    ASSERT_EQ(trust, live.trust) << "seed " << seed;
    // The metrics registry is part of the equivalence surface: both
    // producers (live simulator, recorded stream) feed the same pipeline
    // instrumentation, so the named counters must agree exactly.
    ASSERT_EQ(counters, live.pipeline_counters) << "seed " << seed;
    ASSERT_FALSE(counters.empty()) << "seed " << seed;
  }
}

TEST(AuditReplay, IdleDecayPhaseReplaysByteIdentically) {
  // Fig. 2 semantics: after cease_attack the stream carries kDecay frames;
  // the replayed forgetting sweeps must move trust exactly as live ones.
  const auto live = record_run(7, /*rounds=*/4, /*idle=*/3);
  const auto [verdicts, trust, counters] = replay(live.bytes);
  EXPECT_EQ(verdicts, live.verdicts);
  EXPECT_EQ(trust, live.trust);
  EXPECT_EQ(counters, live.pipeline_counters);
}

TEST(AuditReplay, FaultedRunsReplayByteIdentically) {
  // Under churn the liveness gate reads the stream's kLine frames; a
  // crashed suspect's suppressed convictions must suppress identically
  // offline.
  const auto plan_text =
      "20000 crash n6\n"
      "24000 brownout 0 0 120 120 0.6\n"
      "31000 brownout_clear 0 0 120 120\n"
      "35000 restart n6\n";
  for (std::uint64_t seed : {11u, 23u, 29u}) {
    const auto live = record_run(seed, /*rounds=*/4, /*idle=*/0,
                                 faults::FaultPlan::parse(plan_text));
    const auto [verdicts, trust, counters] = replay(live.bytes);
    ASSERT_EQ(verdicts, live.verdicts) << "seed " << seed;
    ASSERT_EQ(trust, live.trust) << "seed " << seed;
    ASSERT_EQ(counters, live.pipeline_counters) << "seed " << seed;
  }
}

TEST(AuditReplay, PrefixAtFrameBoundaryIsAValidLog) {
  // The format is a stream, not a document: any prefix ending at a frame
  // boundary replays cleanly (it is simply a shorter run).
  const auto live = record_run(5, /*rounds=*/2, /*idle=*/1);
  AuditStreamReader stream{live.bytes};
  auto pipeline = core::pipeline_from_header(stream.header());
  AuditEvent event;
  std::size_t frames = 0;
  while (stream.next(event)) {
    pipeline.consume(event);
    ++frames;
  }
  EXPECT_GT(frames, 0u);
  // Recording never perturbs the run: a non-recording twin matches the
  // recording one report for report.
  TrustExperiment::Config config;
  config.seed = 5;
  config.num_nodes = 16;
  config.num_liars = 4;
  config.rounds = 2;
  TrustExperiment twin{config};
  twin.setup();
  twin.run_round();
  twin.run_round();
  twin.cease_attack();
  twin.run_idle_round();
  EXPECT_EQ(core::verdict_csv(twin.detector().reports()), live.verdicts);
  EXPECT_EQ(core::trust_csv(twin.detector().trust_store()), live.trust);
}

// --- pinned bytes ---------------------------------------------------------

// The round-trip and re-encode tests would pass a layout change made the
// same way to the writer and the reader; these digests pin the bytes
// themselves. They are keyed by kAuditVersion: a layout change bumps the
// version and regenerates them (tests/fixtures/README.md).
struct PinnedLogs {
  std::uint32_t version;
  std::uint64_t sample, forward_audit, recorded_spoof;
};
constexpr PinnedLogs kPinnedLogs{
    2, 0x9c19143fcf194051ull, 0xd7e909ba894176fcull, 0x6b0b59f70ed77ad9ull};

TEST(AuditBytes, PinnedPerVersion) {
  ASSERT_EQ(logging::kAuditVersion, kPinnedLogs.version)
      << "the layout changed: regenerate the digests below";
  EXPECT_EQ(test_digest::fnv1a64(sample_log()), kPinnedLogs.sample);
  EXPECT_EQ(test_digest::fnv1a64(forward_audit_log()),
            kPinnedLogs.forward_audit);
  EXPECT_EQ(test_digest::fnv1a64(record_run(7, /*rounds=*/3, /*idle=*/1).bytes),
            kPinnedLogs.recorded_spoof);
}

TEST(AuditReplay, RestoreCheckpointRejectsRecordingConfig) {
  // A resumed run would record a log with no beginning; the config is
  // declared incompatible rather than silently producing a broken stream.
  TrustExperiment::Config config;
  config.seed = 3;
  config.checkpointable = true;
  TrustExperiment exp{config};
  exp.setup();
  exp.run_round();
  const auto bytes = exp.save_checkpoint();
  auto bad = config;
  bad.record_audit = true;
  EXPECT_THROW(TrustExperiment::restore_checkpoint(bad, bytes),
               std::invalid_argument);
}

}  // namespace
}  // namespace manet
