// Micro-benchmarks of the audit-event detection pipeline, split at the
// replay's seam: in-memory consumption throughput (records/s into Eq. 8-10
// + trust updates) and decode-only throughput of the recorded audit-log
// format, plus the forwarding-audit frame path. The end-to-end replay and
// grayhole round are timed by benchmark/ (the replay-corpus and
// grid-grayhole workloads).

#include <benchmark/benchmark.h>

#include <vector>

#include "core/pipeline.hpp"
#include "logging/audit_log.hpp"

using namespace manet;

namespace {

// A synthetic stream over `peers` distinct nodes: bursts of HELLO/TC lines
// interleaved with investigation rounds of 12 answers each, shaped like
// the live detector's feed (many lines per round).
std::vector<core::AuditEvent> synth_events(std::uint32_t peers,
                                           std::size_t rounds) {
  std::vector<core::AuditEvent> events;
  events.reserve(rounds * 17);
  std::int64_t t_us = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (int k = 0; k < 16; ++k) {
      t_us += 1000;
      const net::NodeId from{
          1 + static_cast<std::uint32_t>((r * 16 + k) % peers)};
      core::AuditEvent e;
      e.kind = logging::AuditFrame::kLine;
      e.time = sim::Time::from_us(t_us);
      const std::vector<net::NodeId> none;
      if (k % 4 == 0) {
        e.line = {e.time, net::NodeId{0}, logging::Event::kTcRecv, from, from,
                  0, 0, none, 1};
      } else {
        e.line = {e.time, net::NodeId{0}, logging::Event::kHelloRecv, from, 0,
                  none, none, 1, 3};
      }
      events.push_back(std::move(e));
    }
    t_us += 1000;
    core::AuditEvent e;
    e.kind = logging::AuditFrame::kRound;
    e.time = sim::Time::from_us(t_us);
    e.round.query.investigation_id = static_cast<std::uint32_t>(r + 1);
    e.round.query.suspect = net::NodeId{1 + static_cast<std::uint32_t>(r % peers)};
    e.round.query.subject = net::NodeId{1 + static_cast<std::uint32_t>((r + 1) % peers)};
    e.round.query.claimed_up = true;
    e.round.own_observation = -1.0;
    for (int j = 0; j < 12; ++j) {
      const net::NodeId responder{
          2 + static_cast<std::uint32_t>((r * 7 + j) % peers)};
      e.round.answers.push_back(
          core::RoundAnswer{responder, j % 3 == 0 ? +1.0 : -1.0, true});
    }
    e.round.tags.push_back(core::EvidenceTag::kSignatureMatch);
    events.push_back(std::move(e));
  }
  return events;
}

core::PipelineConfig synth_config(std::uint32_t peers) {
  core::PipelineConfig config;
  config.self = net::NodeId{0};
  config.liveness_window = sim::Duration::from_seconds(10.0);
  (void)peers;
  return config;
}

std::vector<std::uint8_t> synth_log(std::uint32_t peers, std::size_t rounds) {
  logging::AuditWriter writer;
  core::AuditHeader header;
  header.config = synth_config(peers);
  for (std::uint32_t i = 1; i <= peers; ++i)
    header.trust_rows.emplace_back(net::NodeId{i}, 0.4);
  core::write_audit_header(writer, header);
  for (const auto& e : synth_events(peers, rounds)) {
    if (e.kind == logging::AuditFrame::kLine)
      writer.line(e.line);
    else
      core::write_round_frame(writer, e.time, e.round);
  }
  return writer.take();
}

}  // namespace

// In-memory consumption: pre-built events stream into a fresh pipeline.
// items/s == audit records/s through the full detection path.
static void BM_DetectConsume(benchmark::State& state) {
  const auto peers = static_cast<std::uint32_t>(state.range(0));
  constexpr std::size_t kRounds = 64;
  const auto events = synth_events(peers, kRounds);
  for (auto _ : state) {
    core::DetectionPipeline pipeline{synth_config(peers)};
    for (const auto& e : events) pipeline.consume(e);
    benchmark::DoNotOptimize(pipeline.reports().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_DetectConsume)->Arg(256)->Arg(1024);

// Forwarding-audit frame consumption: the kForwardAudit path is recorder
// write + bounded telemetry append, deliberately touching no trust state —
// this gauge keeps it honest (it should sit far above the kRound rate).
static void BM_ForwardAuditConsume(benchmark::State& state) {
  const auto peers = static_cast<std::uint32_t>(state.range(0));
  std::vector<core::AuditEvent> events;
  events.reserve(4096);
  for (std::size_t i = 0; i < 4096; ++i) {
    core::AuditEvent e;
    e.kind = logging::AuditFrame::kForwardAudit;
    e.time = sim::Time::from_us(static_cast<std::int64_t>(i) * 1000);
    e.audit.mpr = net::NodeId{1 + static_cast<std::uint32_t>(i) % peers};
    e.audit.expected = 8;
    e.audit.forwarded = i % 2 ? 8 : 0;
    events.push_back(std::move(e));
  }
  for (auto _ : state) {
    core::DetectionPipeline pipeline{synth_config(peers)};
    for (const auto& e : events) pipeline.consume(e);
    benchmark::DoNotOptimize(pipeline.forward_audits().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_ForwardAuditConsume)->Arg(256)->Arg(1024);

// Decode-only: frame walk + payload decode with no pipeline behind it —
// isolates the codec cost from the detection math.
static void BM_AuditDecode(benchmark::State& state) {
  const auto bytes = synth_log(256, 64);
  for (auto _ : state) {
    core::AuditStreamReader stream{bytes};
    core::AuditEvent event;
    std::size_t frames = 0;
    while (stream.next(event)) ++frames;
    benchmark::DoNotOptimize(frames);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_AuditDecode);
