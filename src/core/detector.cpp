#include "core/detector.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/slab.hpp"

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
      log_triggers_{agent.id(), config.storm_burst},
      scan_timer_{sim, config.scan_interval, sim::Duration::from_ms(100),
                  [this] { scan_once(); }} {}

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
  p.next_scan = next_scan_;
  p.current_mprs = current_mprs_;
  p.pending_tcs.assign(pending_tcs_.begin(), pending_tcs_.end());
  p.last_investigated = last_investigated_;
  p.answer_pool = pipeline_.answer_pool();
  p.degradation = pipeline_.degradation();
  p.auditor = auditor_.persist();
  return p;
}

void Detector::restore(Persisted p) {
  next_scan_ = p.next_scan;
  current_mprs_ = std::move(p.current_mprs);
  pending_tcs_.assign(p.pending_tcs.begin(), p.pending_tcs.end());
  last_investigated_ = std::move(p.last_investigated);
  pipeline_.restore(std::move(p.answer_pool), p.degradation);
  auditor_.restore(p.auditor);
  // Rebuild the pipeline's liveness oracle from the restored log's retained
  // window — the same records the pre-checkpoint newest-first scan saw.
  next_feed_ = agent_.log().base_index();
  feed_log_growth();
}

bool Detector::in_cooldown(NodeId suspect, NodeId subject) const {
  const auto* at =
      sim::slab_get(last_investigated_, std::pair{suspect, subject});
  return at && sim_.now() - *at < config_.suspect_cooldown;
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
  // liveness oracle exactly as fresh as the log), then the IDS reads each
  // record appended since the previous scan once, in place, in one pass.
  feed_log_growth();
  const auto& log = agent_.log();
  std::vector<Trigger> triggers;
  for (const auto& record : log.records_from(next_scan_)) {
    log_triggers_.feed(record, triggers);
    track_own_tcs(record);
    if (config_.forwarding_audit) auditor_.read(record, current_mprs_);
  }
  next_scan_ = log.total_appended();

  // Every trigger is raised before the first round launches (a launch
  // appends to the log): the records' own in log order, then the E2 drops
  // of our TCs, then the failing forwarding-audit tallies.
  check_forward_timeouts(triggers);
  if (config_.forwarding_audit) {
    // Grayhole path: close expired flood entries and stream every tally
    // (observability frames) before any round of this scan completes.
    for (const auto& tally : auditor_.close(sim_.now())) {
      pipeline_.consume_forward_audit(sim_.now(), tally);
      if (auditor_.fails(tally))
        triggers.push_back({TriggerKind::kAuditFail, tally.mpr, agent_.id()});
    }
  }

  std::size_t launched = 0;
  for (const auto& trigger : triggers) launched += launch(trigger);

  // Periodic MPR audit (§III-B: non-event-driven cases are "handled by
  // launching periodical/random checks"): cross-check every currently
  // selected MPR's advertised links against independent local knowledge.
  for (auto mpr : current_mprs_)
    for (auto x : find_disputed_links(mpr))
      launched += launch_round(QueryKind::kLinkStatus, mpr, x, true,
                               {EvidenceTag::kPeriodicCheck});
  return launched;
}

void Detector::track_own_tcs(const logging::RecordView& record) {
  using logging::Event;
  using logging::Key;
  if (record.event() == Event::kMprChanged) {
    // The agent logs its MPR set ascending.
    const auto mprs = record.ids(Key::kMprs);
    current_mprs_.assign(mprs.begin(), mprs.end());
  } else if (record.event() == Event::kTcSent) {
    pending_tcs_.push_back(
        SentTc{record.time, record.integer(Key::kSeq), current_mprs_, {}});
  } else if (record.event() == Event::kOwnFwdHeard) {
    const auto seq = record.integer(Key::kSeq);
    const auto by = record.id(Key::kBy);
    for (auto& tc : pending_tcs_) {
      if (tc.seq != seq) continue;
      const auto at = std::ranges::lower_bound(tc.heard_from, by);
      if (at == tc.heard_from.end() || *at != by) tc.heard_from.insert(at, by);
    }
  }
}

void Detector::check_forward_timeouts(std::vector<Trigger>& triggers) {
  // A TC that times out in this scan accuses its lowest unheard MPR once,
  // unless it was sent more than one scan interval before its timeout.
  const auto now = sim_.now();
  while (!pending_tcs_.empty() &&
         now - pending_tcs_.front().at >= kFwdTimeout) {
    const auto& tc = pending_tcs_.front();
    if (now - tc.at <= kFwdTimeout + config_.scan_interval) {
      const auto unheard =
          std::ranges::find_if(tc.mprs_then, [&tc](NodeId mpr) {
            return !std::ranges::binary_search(tc.heard_from, mpr);
          });
      if (unheard != tc.mprs_then.end())
        triggers.push_back({TriggerKind::kDrop, *unheard, agent_.id()});
    }
    pending_tcs_.pop_front();
  }
}

std::size_t Detector::launch(const Trigger& t) {
  using Tag = EvidenceTag;
  switch (t.kind) {
    case TriggerKind::kClaim:
    case TriggerKind::kOmission:
      return launch_round(QueryKind::kLinkStatus, t.suspect, t.subject,
                          t.kind == TriggerKind::kClaim,
                          {Tag::kSignatureMatch});
    case TriggerKind::kStorm:
      return launch_round(QueryKind::kLinkStatus, t.suspect, t.subject, true,
                          {Tag::kE2MprMisbehaving, Tag::kSignatureMatch});
    case TriggerKind::kDrop:
      // An MPR implicitly claims that it forwards.
      return launch_round(QueryKind::kForwarding, t.suspect, t.subject, true,
                          {Tag::kE2MprMisbehaving});
    case TriggerKind::kAuditFail:
      // Grayhole: the same round shape as a drop, so the trust pipeline is
      // reused verbatim.
      return launch_round(QueryKind::kForwarding, t.suspect, t.subject, true,
                          {Tag::kE2MprMisbehaving, Tag::kSignatureMatch});
    case TriggerKind::kMprAdded: {
      // E1: the MPR set gained the suspect, either a true replacement (the
      // new MPR grew its coverage to the detriment of the replaced one) or
      // a suspicious initial selection. Only the suspect's advertised links
      // that independent local knowledge cannot corroborate, or that it
      // contradicts, go to investigation.
      std::size_t launched = 0;
      for (auto x : find_disputed_links(t.suspect))
        launched += launch_round(QueryKind::kLinkStatus, t.suspect, x, true,
                                 {Tag::kE1MprReplaced});
      return launched;
    }
  }
  return 0;
}

std::size_t Detector::launch_round(QueryKind kind, NodeId suspect,
                                   NodeId subject, bool claimed_up,
                                   std::vector<EvidenceTag> tags) {
  if (in_cooldown(suspect, subject)) return 0;
  investigate(kind, suspect, subject, claimed_up, std::move(tags), {});
  return 1;
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
  investigate(QueryKind::kLinkStatus, suspect, subject, claimed_up,
              std::move(tags), std::move(verifiers));
}

void Detector::investigate(QueryKind kind, NodeId suspect, NodeId subject,
                           bool claimed_up, std::vector<EvidenceTag> tags,
                           std::vector<NodeId> verifiers) {
  LinkQuery q;
  q.kind = kind;
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

  sim::slab_entry(last_investigated_, std::pair{suspect, subject}) =
      sim_.now();
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
