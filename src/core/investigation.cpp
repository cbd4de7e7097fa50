#include "core/investigation.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "olsr/wire.hpp"
#include "sim/slab.hpp"

namespace manet::core {
namespace {

// Async-span correlation id of one investigation: unique across nodes
// (each manager numbers its own investigations from 1) and a pure function
// of the run.
std::uint64_t span_id(std::uint32_t agent, std::uint32_t investigation) {
  return (static_cast<std::uint64_t>(agent) << 32) | investigation;
}

constexpr std::uint8_t kQueryTag = 1;
constexpr std::uint8_t kAnswerTag = 2;
/// tag, kind, id, suspect, subject, claim.
constexpr std::size_t kQuerySize = 15;
/// tag, id, responder, suspect, subject, evidence sign.
constexpr std::size_t kAnswerSize = 18;

}  // namespace

std::vector<std::uint8_t> encode_query(const LinkQuery& q) {
  olsr::WireWriter w{kQuerySize};
  w.u8(kQueryTag);
  w.u8(q.kind);
  w.u32(q.investigation_id);
  w.node(q.suspect);
  w.node(q.subject);
  w.boolean(q.claimed_up);
  return w.take();
}

std::optional<LinkQuery> decode_query(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() != kQuerySize) return std::nullopt;
  olsr::WireReader r{bytes};
  LinkQuery q;
  if (r.u8() != kQueryTag) return std::nullopt;
  r.u8(q.kind);
  if (q.kind != QueryKind::kLinkStatus && q.kind != QueryKind::kForwarding)
    return std::nullopt;
  r.u32(q.investigation_id);
  r.node(q.suspect);
  r.node(q.subject);
  r.boolean(q.claimed_up);
  return q;
}

std::vector<std::uint8_t> encode_answer(const LinkAnswer& a) {
  olsr::WireWriter w{kAnswerSize};
  w.u8(kAnswerTag);
  w.u32(a.investigation_id);
  w.node(a.responder);
  w.node(a.suspect);
  w.node(a.subject);
  w.u8(a.evidence > 0 ? 1 : (a.evidence < 0 ? 2 : 0));
  return w.take();
}

std::optional<LinkAnswer> decode_answer(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() != kAnswerSize) return std::nullopt;
  olsr::WireReader r{bytes};
  LinkAnswer a;
  if (r.u8() != kAnswerTag) return std::nullopt;
  r.u32(a.investigation_id);
  r.node(a.responder);
  r.node(a.suspect);
  r.node(a.subject);
  const auto sign = r.u8();
  a.evidence = sign == 1 ? 1.0 : (sign == 2 ? -1.0 : 0.0);
  return a;
}

bool is_query(const std::vector<std::uint8_t>& bytes) {
  return !bytes.empty() && bytes[0] == kQueryTag;
}

InvestigationManager::InvestigationManager(sim::Engine& sim,
                                           olsr::Agent& agent,
                                           AnswerPolicy policy)
    : sim_{sim},
      agent_{agent},
      policy_{policy},
      index_{agent.log()} {
  agent_.set_data_handler(
      [this](const olsr::DataMessage& message) { on_data(message); });
}

void InvestigationManager::on_data(const olsr::DataMessage& message) {
  if (message.protocol != kInvestigationProtocol) {
    if (fallback_) fallback_(message);
    return;
  }
  if (is_query(message.payload)) {
    if (auto q = decode_query(message.payload))
      handle_query(message.source, *q, message.trace);
  } else {
    if (auto a = decode_answer(message.payload)) handle_answer(*a);
  }
}

double InvestigationManager::honest_observation(const LinkQuery& query) {
  const auto now = sim_.now();
  const auto& index = log_index();
  const auto fresh = [&](sim::Time at) {
    return !(now - at > kHelloFreshness);
  };

  if (query.kind == QueryKind::kForwarding) {
    // Did we select the suspect as MPR, and did it retransmit our messages?
    if (!agent_.is_mpr(query.suspect)) return 0.0;
    const auto echo = index.newest_fwd_echo(query.suspect);
    // Our MPR, but no forward observed recently: -1.
    return echo && fresh(*echo) ? +1.0 : -1.0;
  }

  // kLinkStatus: is the link suspect-subject up? Evidence must come from
  // the SUBJECT's side or third parties — the suspect's own HELLOs are the
  // very claim under dispute and must never corroborate themselves.
  if (query.subject == agent_.id()) {
    // We ARE the far end: first-hand knowledge from the link set.
    return agent_.is_symmetric_neighbor(query.suspect) ? +1.0 : -1.0;
  }

  // A down-claim (the suspect omits the subject) cannot be judged by third
  // parties: a one-sided listing is indistinguishable from a genuine link
  // break. Only the omitted subject's first-hand testimony is informative;
  // everyone else abstains.
  if (!query.claimed_up) return 0.0;

  // Consult our own audit log: the freshest HELLO heard directly from the
  // subject tells us whether it considers the suspect a neighbor; if it
  // does, the suspect's freshest HELLO must reciprocate for the link to be
  // symmetric (a one-sided listing is not an up link).
  const auto subject_hello = index.newest_hello(query.subject);
  if (subject_hello && fresh(subject_hello->time)) {
    if (!LogIndex::lists(*subject_hello, query.suspect)) return -1.0;
    const auto suspect_hello = index.newest_hello(query.suspect);
    if (!suspect_hello || !fresh(suspect_hello->time))
      return +1.0;  // subject vouches; suspect unheard locally
    return LogIndex::lists(*suspect_hello, query.subject) ? +1.0 : -1.0;
  }

  // Never heard the subject directly. Look for evidence of its existence
  // that does NOT trace back to the suspect itself: a TC it originated, a
  // TC advertising it, or a HELLO from a third node listing it. If no
  // independent trace exists, the advertised link points at a phantom.
  if (index.tc_originated(query.subject) ||
      index.tc_advertised_by_other(query.subject, query.suspect) ||
      index.hello_listed_by_other(query.subject, query.suspect, query.subject))
    return 0.0;
  return -1.0;
}

void InvestigationManager::handle_query(NodeId requester,
                                        const LinkQuery& query,
                                        const std::vector<NodeId>& trace) {
  if (policy_ == AnswerPolicy::kSilent) return;

  const double truth_observation = honest_observation(query);
  // Evidence = agreement with the suspect's claim.
  const double claim = query.claimed_up ? +1.0 : -1.0;
  double evidence = truth_observation == 0.0
                        ? 0.0
                        : (truth_observation == claim ? +1.0 : -1.0);

  switch (policy_) {
    case AnswerPolicy::kHonest:
      break;
    case AnswerPolicy::kLiar:
      // The colluder contradicts the truth: it vouches for the attacker's
      // claim, or frames an innocent suspect.
      evidence = evidence == 0.0 ? +1.0 : -evidence;
      break;
    case AnswerPolicy::kRandom:
      evidence = sim_.rng().bernoulli(0.5) ? +1.0 : -1.0;
      break;
    case AnswerPolicy::kSilent:
      return;  // unreachable, handled above
  }

  LinkAnswer answer;
  answer.investigation_id = query.investigation_id;
  answer.responder = agent_.id();
  answer.suspect = query.suspect;
  answer.subject = query.subject;
  answer.evidence = evidence;

  ++stats_.answers_sent;
  // §III-C: request and answer together must avoid the suspect. The query
  // arrived over a suspect-free path, so the answer retraces it in reverse;
  // if no trace exists (direct delivery), compute a suspect-avoiding route.
  if (!trace.empty()) {
    std::vector<NodeId> route{trace.rbegin(), trace.rend()};
    route.push_back(requester);
    agent_.send_data_via(std::move(route), kInvestigationProtocol,
                         encode_answer(answer));
  } else {
    agent_.send_data(requester, kInvestigationProtocol, encode_answer(answer),
                     {query.suspect});
  }
}

void InvestigationManager::investigate(const LinkQuery& query,
                                       std::vector<NodeId> verifiers,
                                       RoundCallback done) {
  const auto id = next_id_++;
  obs::hit(obs::Hot::kInvestigationsOpened);
  obs::async_begin(obs::SpanName::kInvestigation, sim_.now(),
                   span_id(agent_.id().value(), id));
  auto& inv = sim::slab_entry(outstanding_, id);
  inv.query = query;
  inv.query.investigation_id = id;
  inv.result.id = id;
  inv.result.query = inv.query;
  inv.done = std::move(done);
  inv.timer = std::make_unique<sim::OneShotTimer>(sim_);

  // Queries go out in ascending verifier order.
  std::ranges::sort(verifiers);
  verifiers.erase(std::ranges::unique(verifiers).begin(), verifiers.end());
  for (auto v : verifiers) {
    if (v == agent_.id() || v == query.suspect) continue;
    inv.pending.emplace_back(
        v, PendingVerifier{kMaxRetries, {query.suspect}, false});
  }
  if (inv.pending.empty()) {
    finalize(id);
    return;
  }
  for (auto& [v, _] : inv.pending) send_query_to(inv, v);
  inv.timer->arm(kAnswerTimeout, [this, id] { on_timeout(id); });
}

void InvestigationManager::send_query_to(Outstanding& inv, NodeId verifier) {
  auto& p = *sim::slab_get(inv.pending, verifier);
  ++stats_.queries_sent;
  const auto status = agent_.send_data(
      verifier, kInvestigationProtocol, encode_query(inv.query), p.avoid);
  if (status == olsr::Agent::SendStatus::kNoRoute) {
    ++stats_.route_failures;
    // No path that avoids the suspect: the paper's E3 situation. The
    // verifier stays pending; a retry may succeed after topology changes.
  }
}

void InvestigationManager::handle_answer(const LinkAnswer& answer) {
  auto* inv = sim::slab_get(outstanding_, answer.investigation_id);
  if (!inv) return;
  auto* p = sim::slab_get(inv->pending, answer.responder);
  if (!p || p->done) return;

  p->done = true;
  ++stats_.answers_received;
  inv->result.answers.push_back(
      RoundAnswer{answer.responder, answer.evidence, true});

  const bool all_done =
      std::all_of(inv->pending.begin(), inv->pending.end(),
                  [](const auto& kv) { return kv.second.done; });
  if (all_done) finalize(answer.investigation_id);
}

void InvestigationManager::on_timeout(std::uint32_t id) {
  auto* found = sim::slab_get(outstanding_, id);
  if (!found) return;
  auto& inv = *found;

  bool any_retry = false;
  for (auto& [v, p] : inv.pending) {
    if (p.done) continue;
    if (p.retries_left > 0) {
      --p.retries_left;
      ++stats_.retries;
      // Algorithm 1: try the next covering path — grow the avoid set with
      // the first relay of the previous attempt so a different route is
      // chosen, then fall back to any multi-hop alternative.
      const auto prev = agent_.path_avoiding(v, p.avoid);
      if (prev && prev->size() > 1) {
        const auto hop = prev->front();
        auto pos = std::lower_bound(p.avoid.begin(), p.avoid.end(), hop);
        if (pos == p.avoid.end() || *pos != hop) p.avoid.insert(pos, hop);
      }
      send_query_to(inv, v);
      any_retry = true;
    } else {
      p.done = true;
      ++inv.result.timeouts;
      inv.result.answers.push_back(RoundAnswer{v, 0.0, false});
    }
  }

  if (any_retry) {
    inv.timer->arm(kAnswerTimeout, [this, id] { on_timeout(id); });
  } else {
    finalize(id);
  }
}

void InvestigationManager::finalize(std::uint32_t id) {
  auto* inv = sim::slab_get(outstanding_, id);
  if (!inv) return;
  // Collect any still-pending verifiers as unanswered.
  for (auto& [v, p] : inv->pending) {
    if (!p.done) {
      inv->result.answers.push_back(RoundAnswer{v, 0.0, false});
      ++inv->result.timeouts;
      p.done = true;
    }
  }
  auto done = std::move(inv->done);
  auto result = std::move(inv->result);
  sim::slab_erase(outstanding_, id);
  obs::async_end(obs::SpanName::kInvestigation, sim_.now(),
                 span_id(agent_.id().value(), id));
  if (done) done(result);
}

}  // namespace manet::core
