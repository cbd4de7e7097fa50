#include "core/detector.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/signatures_olsr.hpp"

namespace manet::core {

PipelineConfig pipeline_config(NodeId self, const DetectorConfig& config) {
  PipelineConfig p;
  p.self = self;
  p.trust_params = config.trust_params;
  p.decision = config.decision;
  p.trust_update_min_detect = config.trust_update_min_detect;
  p.liveness_window = config.liveness_window;
  p.decay_unresponsive = config.decay_unresponsive;
  return p;
}

Detector::Detector(sim::Engine& sim, olsr::Agent& agent,
                   InvestigationManager& investigations, DetectorConfig config)
    : sim_{sim},
      agent_{agent},
      config_{config},
      pipeline_{pipeline_config(agent.id(), config)},
      investigations_{investigations},
      auditor_{agent.id(), config.audit},
      scan_timer_{sim, config.scan_interval, sim::Duration::from_ms(100),
                  [this] { scan_once(); }} {
  matcher_.add_signature(link_spoofing_claim_signature(config_.hello_window));
  matcher_.add_signature(link_omission_signature(config_.hello_window));
  matcher_.add_signature(
      storm_signature(config_.storm_burst, config_.storm_window));
  matcher_.add_signature(drop_signature(config_.fwd_timeout +
                                        config_.scan_interval));
  matcher_.add_signature(mpr_replacement_signature());
  // Gated so the spoofing suites' pinned signature set stays untouched.
  if (config_.forwarding_audit)
    matcher_.add_signature(forwarding_audit_signature());
}

void Detector::start() {
  if (running_) return;
  running_ = true;
  scan_timer_.start();
}

void Detector::stop() {
  if (!running_) return;
  running_ = false;
  scan_timer_.stop();
}

void Detector::feed_log_growth() {
  const auto& log = agent_.log();
  // Retention may have dropped records past the cursor; they are gone for
  // the live pipeline exactly as they were for the old full-log rescan.
  for (const auto& line : log.records_from(next_feed_))
    pipeline_.consume_line(line);
  next_feed_ = log.total_appended();
}

sim::Time Detector::last_heard_of(NodeId node) {
  feed_log_growth();
  return pipeline_.last_heard_of(node);
}

Detector::Persisted Detector::persist() const {
  if (running_)
    throw std::logic_error{"cannot checkpoint a detector with a live scan timer"};
  Persisted p;
  p.last_scan = last_scan_;
  p.current_mprs.assign(current_mprs_.begin(), current_mprs_.end());
  p.pending_tcs.assign(pending_tcs_.begin(), pending_tcs_.end());
  p.last_investigated.assign(last_investigated_.begin(),
                             last_investigated_.end());
  p.answer_pool = pipeline_.answer_pool();
  p.degradation = pipeline_.degradation();
  p.auditor = auditor_.persist();
  return p;
}

void Detector::restore(Persisted p) {
  last_scan_ = p.last_scan;
  current_mprs_ = std::set<NodeId>(p.current_mprs.begin(),
                                   p.current_mprs.end());
  pending_tcs_.assign(p.pending_tcs.begin(), p.pending_tcs.end());
  last_investigated_.clear();
  last_investigated_.insert(p.last_investigated.begin(),
                            p.last_investigated.end());
  pipeline_.restore(std::move(p.answer_pool), p.degradation);
  auditor_.restore(p.auditor);
  // Rebuild the pipeline's liveness oracle from the restored log's retained
  // window — the same records the pre-checkpoint newest-first scan saw.
  next_feed_ = agent_.log().base_index();
  feed_log_growth();
}

bool Detector::in_cooldown(NodeId suspect, NodeId subject) const {
  auto it = last_investigated_.find({suspect, subject});
  return it != last_investigated_.end() &&
         sim_.now() - it->second < config_.suspect_cooldown;
}

std::vector<NodeId> Detector::believed_neighbors_of(NodeId suspect) const {
  // Log-derived: the freshest HELLO heard from the suspect names its
  // advertised neighbors; any node whose freshest HELLO lists the suspect
  // is also a believed neighbor.
  const auto& index = investigations_.log_index();
  std::vector<NodeId> out;
  if (const auto claim = index.newest_hello(suspect)) {
    const auto sym = LogIndex::sym(*claim);
    out.assign(sym.begin(), sym.end());
  }
  index.for_each_newest_hello(
      [&](NodeId from, const logging::RecordView& hello) {
        if (from != suspect && LogIndex::lists(hello, suspect))
          out.push_back(from);
        return true;
      });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  std::erase_if(out, [&](NodeId n) { return n == agent_.id() || n == suspect; });
  return out;
}

std::size_t Detector::scan_once() {
  // The new log growth reaches the pipeline first (kLine events keep its
  // liveness oracle exactly as fresh as the log), then the IDS reads the
  // same growth: every retained record stamped at or after the previous
  // scan, in place, followed by the records this scan synthesizes.
  feed_log_growth();
  const auto growth = agent_.log().records_since(last_scan_);
  last_scan_ = sim_.now();

  // Synthesize mpr_fwd_timeout records for E2 (drop) detection before
  // feeding the matcher, so the drop signature can fire.
  std::vector<logging::LogRecord> synthesized;
  check_forward_timeouts(growth, synthesized);

  // Forwarding audit (grayhole path): close expired flood windows, stream
  // the tallies (observability frames), and synthesize fwd_audit_fail
  // records so the matcher can fire on failing MPRs.
  if (config_.forwarding_audit) {
    for (const auto& tally : auditor_.sweep(sim_.now(), growth, synthesized))
      pipeline_.consume_forward_audit(sim_.now(), tally);
  }

  auto matches = matcher_.feed_all(growth);
  auto more = matcher_.feed_all(synthesized);
  matches.insert(matches.end(), std::make_move_iterator(more.begin()),
                 std::make_move_iterator(more.end()));
  std::size_t launched = 0;
  process_matches(matches, launched);

  // Periodic MPR audit (§III-B: non-event-driven cases are "handled by
  // launching periodical/random checks"): cross-check every currently
  // selected MPR's advertised links against independent local knowledge.
  for (auto mpr : current_mprs_) {
    for (auto x : find_disputed_links(mpr)) {
      if (in_cooldown(mpr, x)) continue;
      investigate_claim(mpr, x, /*claimed_up=*/true,
                        {EvidenceTag::kPeriodicCheck});
      ++launched;
    }
  }
  return launched;
}

void Detector::check_forward_timeouts(
    const logging::LogStore::Records& growth,
    std::vector<logging::LogRecord>& synthesized) {
  using logging::Event;
  using logging::Key;
  // Track our own TC emissions and which MPRs echoed them, purely from the
  // log records that arrive.
  for (const auto& rec : growth) {
    if (rec.event() == Event::kMprChanged) {
      const auto mprs = rec.ids(Key::kMprs);
      current_mprs_ = {mprs.begin(), mprs.end()};
    } else if (rec.event() == Event::kTcSent) {
      pending_tcs_.push_back(
          SentTc{rec.time, rec.integer(Key::kSeq), current_mprs_, {}});
    } else if (rec.event() == Event::kOwnFwdHeard) {
      const auto seq = rec.integer(Key::kSeq);
      for (auto& tc : pending_tcs_)
        if (tc.seq == seq) tc.heard_from.insert(rec.id(Key::kBy));
    }
  }

  const auto now = sim_.now();
  while (!pending_tcs_.empty() &&
         now - pending_tcs_.front().at >= config_.fwd_timeout) {
    const auto tc = pending_tcs_.front();
    pending_tcs_.pop_front();
    for (auto mpr : tc.mprs_then) {
      if (tc.heard_from.contains(mpr)) continue;
      synthesized.emplace_back(now, agent_.id(), Event::kMprFwdTimeout, mpr,
                               tc.seq);
    }
  }
}

void Detector::process_matches(const std::vector<SignatureMatch>& matches,
                               std::size_t& launched) {
  using logging::Key;
  for (const auto& m : matches) {
    if (m.signature == "link_spoofing_claim") {
      // Records: [0] HELLO from suspect I claiming I-X, [1] HELLO from X.
      const auto suspect = m.records[0].id(Key::kFrom);
      const auto subject = m.records[1].id(Key::kFrom);
      if (in_cooldown(suspect, subject)) continue;
      investigate_claim(suspect, subject, /*claimed_up=*/true,
                        {EvidenceTag::kSignatureMatch});
      ++launched;
    } else if (m.signature == "link_omission") {
      const auto subject = m.records[0].id(Key::kFrom);  // claims link
      const auto suspect = m.records[1].id(Key::kFrom);  // omits it
      if (in_cooldown(suspect, subject)) continue;
      investigate_claim(suspect, subject, /*claimed_up=*/false,
                        {EvidenceTag::kSignatureMatch});
      ++launched;
    } else if (m.signature == "broadcast_storm") {
      const auto suspect = m.correlated;
      if (in_cooldown(suspect, agent_.id())) continue;
      investigate_claim(suspect, agent_.id(), /*claimed_up=*/true,
                        {EvidenceTag::kE2MprMisbehaving,
                         EvidenceTag::kSignatureMatch});
      ++launched;
    } else if (m.signature == "mpr_drop") {
      const auto suspect = m.records[1].id(Key::kMpr);
      if (in_cooldown(suspect, agent_.id())) continue;
      LinkQuery q;
      q.kind = QueryKind::kForwarding;
      q.suspect = suspect;
      q.subject = agent_.id();
      q.claimed_up = true;  // an MPR implicitly claims it forwards
      auto verifiers = believed_neighbors_of(suspect);
      last_investigated_[{suspect, agent_.id()}] = sim_.now();
      investigations_.investigate(
          q, std::move(verifiers),
          [this, tags = std::vector<EvidenceTag>{
                     EvidenceTag::kE2MprMisbehaving}](const RoundResult& r) {
            on_round_complete(r, tags);
          });
      ++launched;
    } else if (m.signature == "forwarding_audit") {
      // Grayhole: an audited WILL_ALWAYS MPR failed its forwarded/expected
      // window. Same round shape as mpr_drop — the MPR implicitly claims it
      // forwards — so the trust pipeline is reused verbatim.
      const auto suspect = m.records[0].id(Key::kMpr);
      if (in_cooldown(suspect, agent_.id())) continue;
      LinkQuery q;
      q.kind = QueryKind::kForwarding;
      q.suspect = suspect;
      q.subject = agent_.id();
      q.claimed_up = true;
      auto verifiers = believed_neighbors_of(suspect);
      last_investigated_[{suspect, agent_.id()}] = sim_.now();
      investigations_.investigate(
          q, std::move(verifiers),
          [this, tags = std::vector<EvidenceTag>{
                     EvidenceTag::kE2MprMisbehaving,
                     EvidenceTag::kSignatureMatch}](const RoundResult& r) {
            on_round_complete(r, tags);
          });
      ++launched;
    } else if (m.signature == "mpr_replacement") {
      // E1: the MPR set gained a member — either a true replacement (the
      // new MPR grew its coverage to the detriment of the replaced one) or
      // a suspicious initial selection. Each added MPR's advertised links
      // are cross-checked against *independent* local knowledge; only
      // uncorroborated or contradicted links go to investigation.
      const auto added = m.records[0].ids(Key::kAdded);
      for (auto suspect : added) {
        for (auto x : find_disputed_links(suspect)) {
          if (in_cooldown(suspect, x)) continue;
          investigate_claim(suspect, x, /*claimed_up=*/true,
                            {EvidenceTag::kE1MprReplaced});
          ++launched;
        }
      }
    }
  }
}

std::vector<NodeId> Detector::find_disputed_links(NodeId suspect,
                                                  std::size_t max_links) const {
  // The suspect's freshest advertised neighbor list, checked against the
  // other originators' freshest HELLOs and the TCs — all from the local log.
  const auto& index = investigations_.log_index();
  const auto claim = index.newest_hello(suspect);
  if (!claim) return {};

  // Evidence for a node never heard directly: it originated a TC, was
  // advertised in another node's TC, or is listed by a third party's
  // freshest HELLO.
  const auto independent = [&](NodeId x) {
    return index.tc_originated(x) || index.tc_advertised_by_other(x, suspect) ||
           !index.for_each_newest_hello(
               [&](NodeId from, const logging::RecordView& hello) {
                 return from == suspect || !LogIndex::lists(hello, x);
               });
  };

  std::vector<NodeId> disputed;
  for (const auto x : LogIndex::sym(*claim)) {
    if (disputed.size() >= max_links) break;
    if (x == agent_.id()) continue;
    const auto own = index.newest_hello(x);
    // Contradicted neighbor: x's own freshest HELLO omits the suspect.
    // Uncorroborated neighbor: nobody but the suspect has mentioned x.
    if (own ? !LogIndex::lists(*own, suspect) : !independent(x))
      disputed.push_back(x);
  }
  return disputed;
}

void Detector::investigate_claim(NodeId suspect, NodeId subject,
                                 bool claimed_up,
                                 std::vector<EvidenceTag> tags,
                                 std::vector<NodeId> verifiers) {
  LinkQuery q;
  q.kind = QueryKind::kLinkStatus;
  q.suspect = suspect;
  q.subject = subject;
  q.claimed_up = claimed_up;

  if (verifiers.empty()) verifiers = believed_neighbors_of(suspect);
  // E3 check: a suspect that is the sole provider toward some node makes
  // independent verification impossible; tag it so the report reflects the
  // lower confidence (the paper deliberately does not trigger on E3 alone).
  const NodeId avoid[] = {suspect};
  if (subject != agent_.id() && !agent_.path_avoiding(subject, avoid))
    tags.push_back(EvidenceTag::kE3SoleProvider);

  last_investigated_[{suspect, subject}] = sim_.now();
  investigations_.investigate(
      q, std::move(verifiers),
      [this, tags = std::move(tags)](const RoundResult& r) {
        on_round_complete(r, tags);
      });
}

void Detector::on_round_complete(const RoundResult& result,
                                 std::vector<EvidenceTag> tags) {
  // The producer's whole job: turn the completed round into one audit-event
  // and hand it to the pipeline. The first-hand observation is captured
  // HERE — it reads live protocol state (the agent's link/topology view)
  // that an offline replay no longer has, so it travels with the event.
  feed_log_growth();
  AuditRound round;
  round.query = result.query;
  round.own_observation = investigations_.honest_observation(result.query);
  round.answers = result.answers;
  round.timeouts = result.timeouts;
  round.tags = std::move(tags);
  pipeline_.consume_round(sim_.now(), round);
}

}  // namespace manet::core
