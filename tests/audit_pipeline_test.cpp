// Tests for the audit-event stream seam: the binary audit-log wire format
// (frame round trips and every corruption path, mirroring the checkpoint
// codec tests), and the live-vs-replay equivalence guarantee — a recorded
// run fed back through a fresh DetectionPipeline must reproduce verdicts,
// conviction rounds and trust trajectories byte for byte across seeds,
// idle-decay phases and faulted runs.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
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
#include "sim/rng.hpp"
#include "trust/detection.hpp"

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

/// The sample log's one kLine record: a HELLO from n2 listing n1 and n3.
logging::LogRecord hello_line() {
  return {sim::Time::from_ms(1500), NodeId{0}, logging::Event::kHelloRecv,
          NodeId{2}, 7, std::vector<NodeId>{NodeId{1}, NodeId{3}},
          std::vector<NodeId>{}, 1, 3};
}

std::vector<std::uint8_t> sample_log() {
  AuditWriter w;
  AuditHeader header;
  header.config = sample_config();
  header.trust_rows = {{NodeId{1}, 0.25}, {NodeId{2}, 0.7}};
  core::write_audit_header(w, header);

  w.line(hello_line());

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
  EXPECT_EQ(event.line.event(), logging::Event::kHelloRecv);
  EXPECT_EQ(event.line.id(logging::Key::kFrom), NodeId{2});
  EXPECT_EQ(event.line.integer(logging::Key::kSeq), 7);
  EXPECT_EQ(event.line, hello_line());

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
  // A kLine frame whose record cannot be read is a corrupt log (manet_detect
  // exits 2): the decoder refuses it before any consumer sees it.
  AuditWriter w;
  AuditHeader header;
  header.config = sample_config();
  core::write_audit_header(w, header);
  const auto frame = w.buffer().size();
  w.line(hello_line());
  const auto good = w.take();
  {
    // The untouched frame decodes and its line is consumed.
    AuditStreamReader stream{good};
    auto pipeline = core::pipeline_from_header(stream.header());
    AuditEvent event;
    ASSERT_TRUE(stream.next(event));
    ASSERT_EQ(event.kind, AuditFrame::kLine);
    EXPECT_NO_THROW(pipeline.consume(event));
  }
  // Payload: time (8), node (4), event code (1), then hello_recv's from
  // (4) and seq (8) before the sym list's count (8).
  const std::size_t payload = frame + 5;
  const std::size_t code = payload + 12;
  const std::size_t sym_count = code + 1 + 4 + 8;
  ASSERT_EQ(good[code], static_cast<std::uint8_t>(logging::Event::kHelloRecv));
  ASSERT_EQ(good[sym_count], 2u);

  auto unknown = good;  // an event code past the schema table
  unknown[code] = static_cast<std::uint8_t>(logging::kEventCount);
  expect_whole_stream_throws(unknown);
  unknown[code] = 0xFF;
  expect_whole_stream_throws(unknown);

  auto overlong = good;  // the sym list runs past the end of the frame
  overlong[sym_count] = 200;
  expect_whole_stream_throws(overlong);
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

TEST(AuditWire, RejectsUnorderedTrustRows) {
  // TrustStore finds a subject by binary search, so a header whose trust
  // or interaction rows are out of strictly ascending subject order would
  // replay with wrong trust values: (n5, 0.9), (n1, 0.2) read both as 0.4.
  using Counter = trust::TrustStore::Counter;
  const auto header_with = [](std::vector<std::pair<NodeId, double>> trust,
                              std::vector<Counter> interactions) {
    AuditWriter w;
    AuditHeader header;
    header.config = sample_config();
    header.trust_rows = std::move(trust);
    header.interaction_rows = std::move(interactions);
    core::write_audit_header(w, header);
    return w.take();
  };
  EXPECT_NO_THROW(AuditStreamReader{header_with(
      {{NodeId{1}, 0.2}, {NodeId{5}, 0.9}},
      {{NodeId{1}, 1, 2}, {NodeId{5}, 0, 1}})});
  for (const auto& bad :
       {header_with({{NodeId{5}, 0.9}, {NodeId{1}, 0.2}}, {}),
        header_with({{NodeId{5}, 0.9}, {NodeId{5}, 0.2}}, {}),
        header_with({}, {{NodeId{5}, 0, 1}, {NodeId{1}, 1, 2}}),
        header_with({}, {{NodeId{5}, 0, 1}, {NodeId{5}, 1, 2}})})
    expect_whole_stream_throws(bad);
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

// --- mutation sweep ---------------------------------------------------------

/// A short recorded run of one attack family: the header, kLine frames of
/// every kind the run writes, kRound and kDecay frames and, for the
/// grayhole run, kForwardAudit frames.
std::vector<std::uint8_t> short_recorded_log(TrustExperiment::AttackKind attack) {
  TrustExperiment::Config config;
  config.seed = 3;
  config.num_nodes = 9;
  config.num_liars = attack == TrustExperiment::AttackKind::kSpoof ? 2 : 0;
  config.attack = attack;
  config.record_audit = true;
  TrustExperiment exp{config};
  exp.setup();
  exp.run_round();
  exp.run_round();
  exp.cease_attack();
  exp.run_idle_round();
  exp.detector().feed_log_growth();
  return exp.audit_log();
}

/// Byte offsets of a log's element counts (u64) and frame size prefixes
/// (u32), found by walking the layouts of core/pipeline.cpp (header,
/// kRound) and logging/audit_log.hpp (kLine).
struct LogLayout {
  std::vector<std::size_t> counts;
  std::vector<std::size_t> sizes;
};

LogLayout walk_layout(const std::vector<std::uint8_t>& log) {
  const auto le = [&log](std::size_t at, int width) {
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i) v |= std::uint64_t{log[at + i]} << (8 * i);
    return v;
  };
  LogLayout layout;
  // The tag (8), then the config: self (4), the eight trust parameters
  // (64), gamma and level (16), the interval flag (1), the minimum detect
  // (8), the liveness window (8), the decay flag (1). Then the trust
  // snapshot: (node, f64) rows and (node, i64, i64) rows.
  std::size_t pos = 8 + 4 + 64 + 16 + 1 + 8 + 8 + 1;
  layout.counts.push_back(pos);
  pos += 8 + le(pos, 8) * 12;
  layout.counts.push_back(pos);
  pos += 8 + le(pos, 8) * 20;
  while (pos < log.size()) {
    const auto kind = static_cast<AuditFrame>(log[pos]);
    layout.sizes.push_back(pos + 1);
    const std::size_t payload = pos + 5;
    if (kind == AuditFrame::kLine) {
      std::size_t at = payload + 12;  // time, node
      const auto event = static_cast<logging::Event>(log[at++]);
      for (const auto& field : logging::schema(event).fields) {
        if (field.kind == logging::FieldKind::kId) at += 4;
        if (field.kind == logging::FieldKind::kInt) at += 8;
        if (field.kind == logging::FieldKind::kIdList) {
          layout.counts.push_back(at);
          at += 8 + 4 * le(at, 8);
        }
      }
    } else if (kind == AuditFrame::kRound) {
      // time, id, kind, suspect, subject, claim, own observation
      std::size_t at = payload + 8 + 4 + 1 + 4 + 4 + 1 + 8;
      layout.counts.push_back(at);  // answers: responder, f64, flag
      at += 8 + 13 * le(at, 8) + 8;  // then the timeouts tally
      layout.counts.push_back(at);  // tags
    }
    pos = payload + le(pos + 1, 4);
  }
  return layout;
}

/// Replays a mutant log to its end: the reader and the pipeline may refuse
/// it only with AuditError. Returns whether it was refused.
bool replay_mutant(const std::vector<std::uint8_t>& bytes,
                   const std::string& what) {
  try {
    AuditStreamReader stream{bytes};
    auto pipeline = core::pipeline_from_header(stream.header());
    AuditEvent event;
    while (stream.next(event)) pipeline.consume(event);
  } catch (const AuditError&) {
    return true;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": " << e.what();
  }
  return false;
}

TEST(AuditFuzz, MutantsOfRecordedLogsThrowOnlyAuditError) {
  // Bit flips over a stride of bytes with a few masks, then every list
  // count and frame size moved by one and set to large values. Each
  // mutant runs through the reader, pipeline_from_header and consume;
  // under ASan/UBSan this is also the decoder's memory-safety sweep.
  for (const auto attack : {TrustExperiment::AttackKind::kSpoof,
                            TrustExperiment::AttackKind::kGrayhole}) {
    const auto log = short_recorded_log(attack);
    const auto layout = walk_layout(log);
    ASSERT_FALSE(replay_mutant(log, "the unmutated log"));
    const std::string name =
        attack == TrustExperiment::AttackKind::kSpoof ? "spoof" : "grayhole";
    std::size_t mutants = 0, refused = 0;
    const auto run = [&](std::vector<std::uint8_t> bytes, std::string what) {
      ++mutants;
      if (replay_mutant(bytes, name + " " + what)) ++refused;
    };

    const std::uint8_t masks[] = {0x01, 0x10, 0x80, 0xFF};
    const std::size_t stride = log.size() / 1000 + 1;
    for (std::size_t m = 0; m < std::size(masks); ++m) {
      for (std::size_t at = m * stride / std::size(masks); at < log.size();
           at += stride) {
        auto bytes = log;
        bytes[at] ^= masks[m];
        run(std::move(bytes), "flip " + std::to_string(masks[m]) + " at " +
                                  std::to_string(at));
      }
    }

    const auto set = [](std::vector<std::uint8_t>& bytes, std::size_t at,
                        int width, std::uint64_t v) {
      for (int i = 0; i < width; ++i)
        bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    };
    const auto get = [&log](std::size_t at, int width) {
      std::uint64_t v = 0;
      for (int i = 0; i < width; ++i) v |= std::uint64_t{log[at + i]} << (8 * i);
      return v;
    };
    const auto perturb = [&](const std::vector<std::size_t>& fields, int width,
                             const char* what) {
      for (const auto at : fields) {
        const auto v = get(at, width);
        const std::uint64_t top = width == 4 ? UINT32_MAX : UINT64_MAX;
        for (const std::uint64_t to : {v + 1, v - 1, top, top / 2 + 1}) {
          auto bytes = log;
          set(bytes, at, width, to);
          run(std::move(bytes), std::string{what} + " at " +
                                    std::to_string(at) + " -> " +
                                    std::to_string(to));
        }
      }
    };
    perturb(layout.counts, 8, "count");
    perturb(layout.sizes, 4, "frame size");

    EXPECT_GT(refused, 0u) << name;
    EXPECT_LT(refused, mutants) << name;  // some mutants still decode
  }
}

TEST(AuditFuzz, FarApartTimesDoNotOverflowTheLivenessGate) {
  // A crafted log may stamp a reception near the bottom of the time range;
  // the gap to a later round exceeds int64, and the gate must still read
  // it as a long silence (the UBSan job would flag a signed overflow).
  auto config = sample_config();  // liveness window 10 s
  core::DetectionPipeline pipeline{config};
  pipeline.consume_line(logging::LogRecord{
      sim::Time::from_us(INT64_MIN + 5), NodeId{0}, logging::Event::kHelloRecv,
      NodeId{1}, 1, std::vector<NodeId>{}, std::vector<NodeId>{}, 0, 3});
  core::AuditRound round;
  round.query.suspect = NodeId{1};
  round.query.subject = NodeId{5};
  round.own_observation = -1.0;  // the claim is up; we see it down
  for (std::uint32_t id = 2; id < 40; ++id)
    round.answers.push_back({NodeId{id}, -1.0, true});
  pipeline.consume_round(sim::Time::from_seconds(30.0), round);
  const auto& report = pipeline.reports().back();
  EXPECT_TRUE(report.suppressed);
  EXPECT_EQ(report.verdict, trust::Verdict::kUnrecognized);
}

// --- pooled decision: fast path vs spec form ------------------------------

/// Bit-for-bit equality of two doubles (EXPECT_EQ would equate -0 and +0).
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(PooledDecision, MatchesSpecFormEveryRound) {
  // The pipeline keeps one Eq. 9 accumulator per disputed link and reweighs
  // the pool in one pass. Every report must equal trust::decide over the
  // pool after the round's append, weighted by trust before the round's
  // updates: through pools that cross the 500-answer cap (one round even
  // brings more than 500 answers at once), a restore into a fresh pipeline
  // mid-stream, and responder ids beyond the dense 4096-id slabs.
  using Pooled = core::DetectionPipeline::PooledAnswer;
  core::PipelineConfig config;
  config.self = NodeId{0};
  config.trust_update_min_detect = 0.05;
  config.decay_unresponsive = true;
  auto pipeline = std::make_unique<core::DetectionPipeline>(config);

  const std::vector<std::pair<NodeId, NodeId>> links{
      {NodeId{1}, NodeId{2}},
      {NodeId{3}, NodeId{4}},
      {NodeId{5000}, NodeId{6}},
      {NodeId{7}, NodeId{4097}}};
  std::vector<NodeId> responders;
  for (std::uint32_t id = 1; id <= 40; ++id) responders.push_back(NodeId{id});
  for (std::uint32_t id : {4095u, 4096u, 4100u, 0xFFFFFFF0u})
    responders.push_back(NodeId{id});
  responders.push_back(config.self);  // a crafted log may name the investigator

  std::map<std::pair<NodeId, NodeId>, std::vector<Pooled>> spec;
  sim::Rng rng{2024};
  constexpr int kRounds = 400;
  constexpr int kRestoreAt = 230;
  bool trimmed = false;
  for (int r = 0; r < kRounds; ++r) {
    if (r == kRestoreAt) {
      // The restore lands on capped pools and on one still filling up.
      ASSERT_TRUE(trimmed);
      ASSERT_LT(spec[links.back()].size(), 500u);
      auto fresh = std::make_unique<core::DetectionPipeline>(config);
      fresh->trust_store().restore(pipeline->trust_store().trust_rows(),
                                   pipeline->trust_store().interaction_rows());
      fresh->restore(pipeline->answer_pool(), pipeline->degradation());
      pipeline = std::move(fresh);
    }
    // The last link is investigated every 25th round only.
    const auto link =
        r % 25 == 0 ? links.back()
                    : links[static_cast<std::size_t>(rng.uniform_int(
                          0, static_cast<std::int64_t>(links.size()) - 2))];
    core::AuditRound round;
    round.query.investigation_id = static_cast<std::uint32_t>(r);
    round.query.suspect = link.first;
    round.query.subject = link.second;
    round.query.claimed_up = rng.bernoulli(0.5);
    round.own_observation = static_cast<double>(rng.uniform_int(-1, 1));
    const auto count = r == 151 ? 520 : rng.bernoulli(0.2) ? 63 : rng.uniform_int(0, 20);
    const double lean = rng.bernoulli(0.5) ? -1.0 : 1.0;
    for (std::int64_t i = 0; i < count; ++i) {
      core::RoundAnswer a;
      a.responder = responders[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(responders.size()) - 1))];
      a.answered = !rng.bernoulli(0.1);
      a.evidence = !a.answered       ? 0.0
                   : rng.bernoulli(0.1) ? 0.0  // an abstention
                   : rng.bernoulli(0.8) ? lean
                                        : -lean;
      round.answers.push_back(a);
      if (!a.answered) ++round.timeouts;
    }

    // The spec form: append as §IV-C says, trim to the newest 500, and
    // decide from scratch with the investigator's own answer at weight 1.
    auto& pool = spec[link];
    const double claim = round.query.claimed_up ? 1.0 : -1.0;
    if (round.own_observation != 0.0)
      pool.push_back({config.self, round.own_observation == claim ? 1.0 : -1.0,
                      true});
    for (const auto& a : round.answers)
      if (!(a.answered && a.evidence == 0.0))
        pool.push_back({a.responder, a.evidence, a.answered});
    if (pool.size() > 500) {
      pool.erase(pool.begin(), pool.end() - 500);
      trimmed = true;
    }
    std::vector<trust::WeightedAnswer> weighted;
    for (const auto& p : pool)
      weighted.push_back(
          {p.responder,
           p.responder == config.self
               ? 1.0
               : pipeline->trust_store().trust(p.responder),
           p.evidence});
    const auto want = trust::decide(weighted, config.decision);

    pipeline->consume_round(sim::Time::from_ms(1000 + 500 * r), round);
    const auto& got = pipeline->reports().back();
    ASSERT_EQ(got.cumulative_answers, pool.size()) << "round " << r;
    ASSERT_EQ(bits(got.cumulative_detect), bits(want.detect)) << "round " << r;
    ASSERT_EQ(bits(got.interval.mean), bits(want.interval.mean))
        << "round " << r;
    ASSERT_EQ(bits(got.interval.margin), bits(want.interval.margin))
        << "round " << r;
    ASSERT_EQ(got.verdict, want.verdict) << "round " << r;
  }
  // The checkpoint surface exports the spec's pools, in link order.
  const auto exported = pipeline->answer_pool();
  ASSERT_EQ(exported.size(), spec.size());
  auto it = spec.begin();
  for (const auto& [link, answers] : exported) {
    EXPECT_EQ(link, it->first);
    ASSERT_EQ(answers.size(), it->second.size());
    for (std::size_t i = 0; i < answers.size(); ++i) {
      EXPECT_EQ(answers[i].responder, it->second[i].responder);
      EXPECT_EQ(bits(answers[i].evidence), bits(it->second[i].evidence));
      EXPECT_EQ(answers[i].answered, it->second[i].answered);
    }
    ++it;
  }
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
  config.record_audit = true;
  config.fault_plan = std::move(plan);
  obs::Context obs_ctx;
  obs::Scope obs_scope{&obs_ctx};
  TrustExperiment exp{config};
  exp.setup();
  for (int r = 0; r < rounds; ++r) exp.run_round();
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
    3, 0x29d6344f7dc802c3ull, 0xfae229eed4271e51ull, 0x58b6cdfa7afe1955ull};

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
