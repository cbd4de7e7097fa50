#include "core/pipeline.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "obs/obs.hpp"
#include "stats/normal.hpp"

namespace manet::core {

std::string to_string(EvidenceTag tag) {
  switch (tag) {
    case EvidenceTag::kE1MprReplaced:
      return "E1";
    case EvidenceTag::kE2MprMisbehaving:
      return "E2";
    case EvidenceTag::kE3SoleProvider:
      return "E3";
    case EvidenceTag::kE4NotCoveringNeighbor:
      return "E4";
    case EvidenceTag::kE5AdvertisesNonNeighbor:
      return "E5";
    case EvidenceTag::kSignatureMatch:
      return "SIG";
    case EvidenceTag::kPeriodicCheck:
      return "PERIODIC";
  }
  return "?";
}

DetectionPipeline::DetectionPipeline(PipelineConfig config)
    : config_{config}, trust_{config.trust_params} {}

void DetectionPipeline::consume(const AuditEvent& event) {
  switch (event.kind) {
    case logging::AuditFrame::kLine:
      consume_line(event.line);
      break;
    case logging::AuditFrame::kRound:
      consume_round(event.time, event.round);
      break;
    case logging::AuditFrame::kDecay:
      consume_decay(event.time);
      break;
    case logging::AuditFrame::kForwardAudit:
      consume_forward_audit(event.time, event.audit);
      break;
  }
}

void DetectionPipeline::consume_line(const logging::LogRecord& line) {
  obs::hit(obs::Hot::kPipelineLines);
  // Liveness oracle: lines arrive in time order, so the running maximum per
  // peer equals a newest-first scan over the whole log.
  try {
    if (line.event == "hello_recv") {
      last_heard_[line.node_field("from")] = line.time;
    } else if (line.event == "tc_recv") {
      last_heard_[line.node_field("via")] = line.time;
    }
  } catch (const std::invalid_argument& e) {
    // A line this consumer cannot read is a corrupt audit log.
    throw logging::AuditError{std::string{"unreadable log line: "} + e.what()};
  }
}

sim::Time DetectionPipeline::last_heard_of(NodeId node) const {
  auto it = last_heard_.find(node);
  return it == last_heard_.end() ? sim::Time{} : it->second;
}

void DetectionPipeline::consume_decay(sim::Time time) {
  obs::hit(obs::Hot::kPipelineDecays);
  if (recorder_) write_decay_frame(*recorder_, time);
  trust_.decay_all_idle();
}

void DetectionPipeline::consume_forward_audit(sim::Time time,
                                              const ForwardAudit& audit) {
  obs::hit(obs::Hot::kPipelineForwardAudits);
  if (recorder_) write_forward_audit_frame(*recorder_, time, audit);
  forward_audits_.push_back(TimedForwardAudit{time, audit});
  if (forward_audits_.size() > 10'000) forward_audits_.pop_front();
}

void DetectionPipeline::restore(AnswerPool pool,
                                DetectorDegradation degradation) {
  answer_pool_ = std::move(pool);
  degradation_ = degradation;
  last_heard_.clear();
}

void DetectionPipeline::consume_round(sim::Time time, const AuditRound& round) {
  obs::hit(obs::Hot::kPipelineRounds);
  obs::instant(obs::SpanName::kPipelineRound, time,
               round.query.investigation_id);
  if (recorder_) write_round_frame(*recorder_, time, round);

  // First-hand evidence of the investigator itself enters the aggregate at
  // full trust (Property 5: first-hand evidence is privileged over
  // second-hand). Without it, a colluding majority could freeze the
  // detection at a neutral aggregate.
  const double own_obs = round.own_observation;
  const double claim = round.query.claimed_up ? +1.0 : -1.0;
  const double own_evidence =
      own_obs == 0.0 ? 0.0 : (own_obs == claim ? +1.0 : -1.0);

  // Eq. 8 over this round's answers, weighted by current trust.
  // Timeouts keep their paper-mandated e=0 (they discount the aggregate);
  // explicit abstentions ("cannot tell") carry no opinion and are dropped.
  auto usable = [](const RoundAnswer& a) {
    return !(a.answered && a.evidence == 0.0);
  };
  std::vector<trust::WeightedAnswer> round_weighted;
  round_weighted.reserve(round.answers.size() + 1);
  if (own_evidence != 0.0)
    round_weighted.push_back(
        trust::WeightedAnswer{config_.self, 1.0, own_evidence});
  for (const auto& a : round.answers) {
    if (!usable(a)) continue;
    round_weighted.push_back(trust::WeightedAnswer{
        a.responder, trust_.trust(a.responder), a.evidence});
  }
  const double round_detect = trust::aggregate_detection(round_weighted);

  // Accumulate into the per-link pool and decide over the whole pool
  // (§IV-C: an unrecognized outcome demands more evidence; successive
  // rounds shrink the Eq. 9 margin as n grows).
  auto& pool = answer_pool_[{round.query.suspect, round.query.subject}];
  if (own_evidence != 0.0)
    pool.push_back(PooledAnswer{config_.self, own_evidence, true});
  for (const auto& a : round.answers)
    if (usable(a)) pool.push_back(PooledAnswer{a.responder, a.evidence,
                                               a.answered});
  constexpr std::size_t kMaxPool = 500;
  if (pool.size() > kMaxPool)
    pool.erase(pool.begin(),
               pool.begin() + static_cast<std::ptrdiff_t>(pool.size() - kMaxPool));

  std::vector<trust::WeightedAnswer> pooled;
  pooled.reserve(pool.size());
  for (const auto& p : pool) {
    const double w =
        p.responder == config_.self ? 1.0 : trust_.trust(p.responder);
    pooled.push_back(trust::WeightedAnswer{p.responder, w, p.evidence});
  }
  const auto decision = trust::decide(pooled, config_.decision);

  // Liveness gate (faulted runs): convicting a node the stream has not
  // heard from recently would brand a crashed bystander a liar — its
  // silence during the investigation is exactly what a guilty verdict
  // feeds on. Downgrade to kUnrecognized and count the suppression; the
  // pooled evidence stays, so a live-again suspect can still be convicted.
  trust::Verdict verdict = decision.verdict;
  bool suppressed = false;
  if (verdict == trust::Verdict::kIntruder &&
      config_.liveness_window > sim::Duration{}) {
    const sim::Time heard = last_heard_of(round.query.suspect);
    if (heard == sim::Time{} || time - heard > config_.liveness_window) {
      verdict = trust::Verdict::kUnrecognized;
      suppressed = true;
      ++degradation_.suppressed_convictions;
      obs::hit(obs::Hot::kPipelineSuppressed);
      obs::instant(obs::SpanName::kSuppressed, time,
                   round.query.suspect.value());
    }
  }
  if (verdict == trust::Verdict::kIntruder) {
    obs::hit(obs::Hot::kPipelineConvictions);
    obs::instant(obs::SpanName::kConviction, time, round.query.suspect.value());
  }

  DetectionReport report;
  report.time = time;
  report.suspect = round.query.suspect;
  report.subject = round.query.subject;
  report.claimed_up = round.query.claimed_up;
  report.verdict = verdict;
  report.detect = round_detect;
  report.cumulative_detect = decision.detect;
  report.interval = decision.interval;
  report.tags = round.tags;
  report.answers = round.answers.size();
  report.timeouts = round.timeouts;
  report.cumulative_answers = pool.size();
  report.suppressed = suppressed;

  // Confirmed verdicts add the E4/E5 evidence of Expression 4.
  if (verdict == trust::Verdict::kIntruder) {
    report.tags.push_back(round.query.claimed_up
                              ? EvidenceTag::kE5AdvertisesNonNeighbor
                              : EvidenceTag::kE4NotCoveringNeighbor);
  }

  // Update trust (§IV-B: "this result is used to update the trust related
  // to I and S1..Sm"). The per-round aggregate — not the gated verdict —
  // drives the update: even while the decision is still "unrecognized"
  // (wide confidence interval), responders leaning with the weighted
  // majority gain a little and those contradicting it are treated as lying
  // with gravity weighting. This is what lets liar trust fade round after
  // round in the paper's Figure 1/3 dynamics.
  if (std::abs(round_detect) >= config_.trust_update_min_detect) {
    const double correct_sign = round_detect < 0.0 ? -1.0 : +1.0;
    for (const auto& a : round.answers) {
      if (!a.answered || a.evidence == 0.0) continue;
      const bool agrees = a.evidence * correct_sign > 0.0;
      trust_.record_interaction(a.responder, agrees);
      if (agrees) {
        trust_.apply_evidence(
            a.responder,
            trust::honest_answer_evidence(trust_.params().reward_honest));
      } else {
        trust_.apply_evidence(a.responder,
                              trust::lie_evidence(trust_.params().gravity_lie));
      }
    }
  }
  // Unresponsive verifiers under the fault-tolerant policy: relax their
  // trust toward the default instead of freezing it at its pre-crash value.
  if (config_.decay_unresponsive) {
    for (const auto& a : round.answers)
      if (!a.answered) trust_.decay_idle(a.responder);
  }
  // The suspect's own trust only moves on a *confirmed* verdict.
  if (verdict == trust::Verdict::kIntruder) {
    trust_.apply_evidence(
        round.query.suspect,
        trust::intrusion_evidence(trust_.params().gravity_lie));
  } else if (verdict == trust::Verdict::kWellBehaving) {
    trust_.apply_evidence(
        round.query.suspect,
        trust::honest_answer_evidence(trust_.params().reward_honest));
  }

  obs::hit(obs::Hot::kPipelineReports);
  reports_.push_back(report);
  if (reports_.size() > 10'000) reports_.pop_front();
  if (on_report_) on_report_(report);
}

// ------------------------------------------------------------ audit codec
// One transfer function per layout (see logging/binary_codec.hpp): the
// write_* functions and AuditStreamReader run the same bodies, so the
// header and every frame payload are defined once.

namespace {

constexpr logging::FormatTag kAuditTag{logging::kAuditMagic,
                                       logging::kAuditVersion};

template <typename IO, typename Tag, typename Header>
void transfer_header(IO& io, Tag& tag, Header& header) {
  logging::transfer_tag(io, tag);
  auto& c = header.config;
  io.node(c.self);
  auto& tp = c.trust_params;
  io.f64(tp.default_trust);
  io.f64(tp.min_trust);
  io.f64(tp.max_trust);
  io.f64(tp.forgetting);
  io.f64(tp.gravity_lie);
  io.f64(tp.reward_honest);
  io.f64(tp.idle_rate_from_above);
  io.f64(tp.idle_rate_from_below);
  io.f64(c.decision.gamma);
  io.f64(c.decision.confidence_level);
  io.boolean(c.decision.use_confidence_interval);
  io.f64(c.trust_update_min_detect);
  io.time(c.liveness_window);
  io.boolean(c.decay_unresponsive);
  trust::transfer_trust_snapshot(io, header.trust_rows,
                                 header.interaction_rows);
}

template <typename IO, typename T, typename Round>
void transfer_round(IO& io, T& time, Round& round) {
  io.time(time);
  io.u32(round.query.investigation_id);
  io.u8(round.query.kind);
  io.node(round.query.suspect);
  io.node(round.query.subject);
  io.boolean(round.query.claimed_up);
  io.f64(round.own_observation);
  io.list(round.answers, [&io](auto& a) {
    io.node(a.responder);
    io.f64(a.evidence);
    io.boolean(a.answered);
  });
  // Plain u64, not count(): timeouts is a tally, not an element count, so
  // the reader must not bound it by the remaining payload bytes.
  io.u64(round.timeouts);
  io.list(round.tags, [&io](auto& tag) { io.u8(tag); });
}

template <typename IO, typename T>
void transfer_decay(IO& io, T& time) {
  io.time(time);
}

template <typename IO, typename T, typename Audit>
void transfer_forward_audit(IO& io, T& time, Audit& audit) {
  io.time(time);
  io.node(audit.mpr);
  // Plain u64s, not count(): these are tallies, not element counts, so the
  // reader must not bound them by the remaining payload bytes.
  io.u64(audit.expected);
  io.u64(audit.forwarded);
}

void check_round(const AuditRound& round) {
  if (round.query.kind < QueryKind::kLinkStatus ||
      round.query.kind > QueryKind::kForwarding)
    throw logging::AuditError{"corrupt round frame: bad query kind"};
  for (const auto tag : round.tags)
    if (tag > EvidenceTag::kPeriodicCheck)
      throw logging::AuditError{"corrupt round frame: bad evidence tag"};
}

logging::AuditFrame check_frame_kind(std::uint8_t kind) {
  if (kind < static_cast<std::uint8_t>(logging::AuditFrame::kLine) ||
      kind > static_cast<std::uint8_t>(logging::AuditFrame::kForwardAudit))
    throw logging::AuditError{"unknown audit frame kind " +
                              std::to_string(kind)};
  return static_cast<logging::AuditFrame>(kind);
}

AuditHeader read_audit_header(logging::AuditReader& reader) {
  logging::FormatTag tag;
  AuditHeader header;
  transfer_header(reader, tag, header);
  logging::expect_tag<logging::AuditError>(tag, kAuditTag, "audit log");
  // A config the consumer would refuse (its TrustStore's parameters, the
  // Eq. 9 confidence level) is a corrupt header, checked by the consumer's
  // own validators.
  try {
    trust::TrustStore{header.config.trust_params};
    stats::z_for_confidence(header.config.decision.confidence_level);
  } catch (const std::invalid_argument& e) {
    throw logging::AuditError{std::string{"corrupt audit header: "} +
                              e.what()};
  }
  return header;
}

}  // namespace

void write_audit_header(logging::AuditWriter& writer,
                        const AuditHeader& header) {
  transfer_header(writer, kAuditTag, header);
}

DetectionPipeline pipeline_from_header(const AuditHeader& header) {
  DetectionPipeline pipeline{header.config};
  pipeline.trust_store().restore(header.trust_rows, header.interaction_rows);
  return pipeline;
}

void write_round_frame(logging::AuditWriter& writer, sim::Time time,
                       const AuditRound& round) {
  writer.begin_frame(logging::AuditFrame::kRound);
  transfer_round(writer, time, round);
  writer.end_frame();
}

void write_decay_frame(logging::AuditWriter& writer, sim::Time time) {
  writer.begin_frame(logging::AuditFrame::kDecay);
  transfer_decay(writer, time);
  writer.end_frame();
}

void write_forward_audit_frame(logging::AuditWriter& writer, sim::Time time,
                               const ForwardAudit& audit) {
  writer.begin_frame(logging::AuditFrame::kForwardAudit);
  transfer_forward_audit(writer, time, audit);
  writer.end_frame();
}

AuditStreamReader::AuditStreamReader(const std::uint8_t* data,
                                     std::size_t size)
    : reader_{data, size}, header_{read_audit_header(reader_)} {}

AuditStreamReader::AuditStreamReader(std::vector<std::uint8_t>&& data)
    : owned_{std::move(data)},
      reader_{owned_.data(), owned_.size()},
      header_{read_audit_header(reader_)} {}

bool AuditStreamReader::next(AuditEvent& out) {
  if (reader_.at_end()) return false;
  const auto frame = reader_.begin_frame();
  out.kind = check_frame_kind(frame.kind);
  // A kLine frame overwrites every field of `line`, reusing its storage.
  if (out.kind != logging::AuditFrame::kLine) out.line = {};
  out.round = {};
  out.audit = {};
  switch (out.kind) {
    case logging::AuditFrame::kLine:
      logging::transfer_record(reader_, out.line);
      out.time = out.line.time;
      break;
    case logging::AuditFrame::kRound:
      transfer_round(reader_, out.time, out.round);
      check_round(out.round);
      break;
    case logging::AuditFrame::kDecay:
      transfer_decay(reader_, out.time);
      break;
    case logging::AuditFrame::kForwardAudit:
      transfer_forward_audit(reader_, out.time, out.audit);
      break;
  }
  reader_.end_frame(frame);
  return true;
}

// -------------------------------------------------------------- CSV output

namespace {

std::string g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string verdict_csv(const std::deque<DetectionReport>& reports) {
  std::string out =
      "time_us,suspect,subject,claimed_up,verdict,detect,cumulative_detect,"
      "interval_mean,interval_margin,answers,timeouts,cumulative_answers,"
      "suppressed,tags\n";
  for (const auto& r : reports) {
    out += std::to_string(r.time.us());
    out += ',';
    out += r.suspect.to_string();
    out += ',';
    out += r.subject.to_string();
    out += ',';
    out += r.claimed_up ? '1' : '0';
    out += ',';
    out += trust::to_string(r.verdict);
    out += ',';
    out += g17(r.detect);
    out += ',';
    out += g17(r.cumulative_detect);
    out += ',';
    out += g17(r.interval.mean);
    out += ',';
    out += g17(r.interval.margin);
    out += ',';
    out += std::to_string(r.answers);
    out += ',';
    out += std::to_string(r.timeouts);
    out += ',';
    out += std::to_string(r.cumulative_answers);
    out += ',';
    out += r.suppressed ? '1' : '0';
    out += ',';
    for (std::size_t i = 0; i < r.tags.size(); ++i) {
      if (i) out += '|';
      out += to_string(r.tags[i]);
    }
    out += '\n';
  }
  return out;
}

std::string trust_csv(const trust::TrustStore& store) {
  std::string out = "subject,trust,interactions_positive,interactions_total\n";
  const auto& trust_rows = store.trust_rows();
  const auto& inter_rows = store.interaction_rows();
  std::size_t t = 0, i = 0;
  // Both slabs are sorted by subject; merge them into one row per subject.
  while (t < trust_rows.size() || i < inter_rows.size()) {
    NodeId subject;
    if (i >= inter_rows.size() ||
        (t < trust_rows.size() && trust_rows[t].first < inter_rows[i].subject))
      subject = trust_rows[t].first;
    else
      subject = inter_rows[i].subject;
    out += subject.to_string();
    out += ',';
    if (t < trust_rows.size() && trust_rows[t].first == subject) {
      out += g17(trust_rows[t].second);
      ++t;
    } else {
      out += g17(store.params().default_trust);
    }
    out += ',';
    if (i < inter_rows.size() && inter_rows[i].subject == subject) {
      out += std::to_string(inter_rows[i].positive);
      out += ',';
      out += std::to_string(inter_rows[i].total);
      ++i;
    } else {
      out += "0,0";
    }
    out += '\n';
  }
  return out;
}

}  // namespace manet::core
