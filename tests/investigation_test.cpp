// Tests for the cooperative investigation (Algorithm 1): protocol codec,
// honest observations, answer policies, suspect-avoiding routing, timeouts
// and retries.

#include <gtest/gtest.h>

#include "attacks/drop.hpp"
#include "attacks/link_spoofing.hpp"
#include "byte_digest.hpp"
#include "core/investigation.hpp"
#include "net/topology.hpp"
#include "scenario/network.hpp"

namespace manet::core {
namespace {

using scenario::Network;

TEST(InvestigationCodec, QueryRoundTrip) {
  LinkQuery q;
  q.investigation_id = 12345;
  q.kind = QueryKind::kLinkStatus;
  q.suspect = NodeId{7};
  q.subject = NodeId{9};
  q.claimed_up = true;
  const auto decoded = decode_query(encode_query(q));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->investigation_id, q.investigation_id);
  EXPECT_EQ(decoded->suspect, q.suspect);
  EXPECT_EQ(decoded->subject, q.subject);
  EXPECT_EQ(decoded->claimed_up, true);
  EXPECT_TRUE(is_query(encode_query(q)));
  // tag, kind, id, suspect, subject, claim; big-endian like the OLSR wire.
  EXPECT_EQ(test_digest::hex(encode_query(q)),
            "01" "01" "00003039" "00000007" "00000009" "01");
}

TEST(InvestigationCodec, AnswerRoundTrip) {
  // tag, id, responder, suspect, subject, then the evidence sign's byte.
  const std::string fields = "02" "00000037" "00000003" "00000007" "00000009";
  for (const auto& [e, sign] : {std::pair{-1.0, "02"}, std::pair{0.0, "00"},
                                std::pair{1.0, "01"}}) {
    LinkAnswer a;
    a.investigation_id = 55;
    a.responder = NodeId{3};
    a.suspect = NodeId{7};
    a.subject = NodeId{9};
    a.evidence = e;
    const auto decoded = decode_answer(encode_answer(a));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->evidence, e);
    EXPECT_EQ(decoded->responder, a.responder);
    EXPECT_FALSE(is_query(encode_answer(a)));
    EXPECT_EQ(test_digest::hex(encode_answer(a)), fields + sign);
  }
}

TEST(InvestigationCodec, MalformedRejected) {
  EXPECT_FALSE(decode_query({}).has_value());
  EXPECT_FALSE(decode_answer({}).has_value());
  EXPECT_FALSE(decode_query({1, 2, 3}).has_value());
  auto bytes = encode_query(LinkQuery{});
  bytes[1] = 99;  // invalid kind
  EXPECT_FALSE(decode_query(bytes).has_value());

  // Every strict prefix and a one-byte extension of each valid payload.
  const auto short_or_long_rejected = [](std::vector<std::uint8_t> valid,
                                         const auto& decode) {
    ASSERT_TRUE(decode(valid).has_value());
    for (std::size_t n = 0; n < valid.size(); ++n)
      EXPECT_FALSE(decode({valid.begin(), valid.begin() +
                                              static_cast<std::ptrdiff_t>(n)})
                       .has_value())
          << "prefix of " << n << " bytes";
    valid.push_back(0);
    EXPECT_FALSE(decode(valid).has_value()) << "one byte extra";
  };
  LinkQuery q;
  q.investigation_id = 0x01020304;
  q.kind = QueryKind::kForwarding;
  q.suspect = NodeId{7};
  short_or_long_rejected(encode_query(q), decode_query);
  for (const double e : {-1.0, 0.0, 1.0}) {
    LinkAnswer a;
    a.investigation_id = 0x01020304;
    a.responder = NodeId{3};
    a.evidence = e;
    short_or_long_rejected(encode_answer(a), decode_answer);
  }
}

Network::Config cluster_config(std::size_t n, std::uint64_t seed = 1) {
  // Dense cluster: everybody in range of everybody.
  Network::Config c;
  c.seed = seed;
  c.radio.range_m = 400.0;
  c.positions = net::grid_layout(n, 50.0);
  return c;
}

TEST(Investigation, HonestRoundCollectsDenialsForPhantom) {
  Network net{cluster_config(6)};
  const NodeId phantom{90};
  net.set_hooks(1, std::make_unique<attacks::LinkSpoofingAttack>(
                       attacks::LinkSpoofingAttack::Mode::kAddNonExistent,
                       std::set<NodeId>{phantom}));
  net.start_all();
  net.run_for(sim::Duration::from_seconds(12.0));

  LinkQuery q;
  q.suspect = Network::id_of(1);
  q.subject = phantom;
  q.claimed_up = true;

  // Verifiers given out of order, repeated, and with the investigator and
  // the suspect among them: each other verifier is queried once, in
  // ascending order.
  const auto& log = net.agent(0).log();
  const auto first_new = log.total_appended();
  std::optional<RoundResult> result;
  net.investigations(0).investigate(
      q,
      {Network::id_of(4), Network::id_of(2), Network::id_of(0),
       Network::id_of(3), Network::id_of(1), Network::id_of(2)},
      [&](const RoundResult& r) { result = r; });
  std::vector<NodeId> queried;
  for (const auto& record : log.records_from(first_new))
    if (record.event() == logging::Event::kDataSent)
      queried.push_back(record.id(logging::Key::kDest));
  EXPECT_EQ(queried, (std::vector<NodeId>{Network::id_of(2), Network::id_of(3),
                                          Network::id_of(4)}));
  net.run_for(sim::Duration::from_seconds(10.0));

  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->answers.size(), 3u);
  for (const auto& a : result->answers) {
    EXPECT_TRUE(a.answered);
    EXPECT_EQ(a.evidence, -1.0) << a.responder.to_string();
  }
}

TEST(Investigation, SubjectAnswersFirstHand) {
  // When the queried node IS the claimed far end, it answers from its own
  // link set: a real link is confirmed.
  Network net{cluster_config(4)};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(12.0));

  LinkQuery q;
  q.suspect = Network::id_of(1);
  q.subject = Network::id_of(2);  // genuine neighbor of n1
  q.claimed_up = true;

  std::optional<RoundResult> result;
  net.investigations(0).investigate(q, {Network::id_of(2)},
                                    [&](const RoundResult& r) { result = r; });
  net.run_for(sim::Duration::from_seconds(6.0));
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->answers.size(), 1u);
  EXPECT_EQ(result->answers[0].evidence, +1.0);
}

TEST(Investigation, LiarInvertsAnswer) {
  Network net{cluster_config(5)};
  const NodeId phantom{90};
  net.set_hooks(1, std::make_unique<attacks::LinkSpoofingAttack>(
                       attacks::LinkSpoofingAttack::Mode::kAddNonExistent,
                       std::set<NodeId>{phantom}));
  net.set_answer_policy(2, AnswerPolicy::kLiar);
  net.start_all();
  net.run_for(sim::Duration::from_seconds(12.0));

  LinkQuery q;
  q.suspect = Network::id_of(1);
  q.subject = phantom;
  q.claimed_up = true;

  std::optional<RoundResult> result;
  net.investigations(0).investigate(
      q, {Network::id_of(2), Network::id_of(3)},
      [&](const RoundResult& r) { result = r; });
  net.run_for(sim::Duration::from_seconds(6.0));
  ASSERT_TRUE(result.has_value());
  double liar_evidence = 0, honest_evidence = 0;
  for (const auto& a : result->answers) {
    if (a.responder == Network::id_of(2)) liar_evidence = a.evidence;
    if (a.responder == Network::id_of(3)) honest_evidence = a.evidence;
  }
  EXPECT_EQ(honest_evidence, -1.0);
  EXPECT_EQ(liar_evidence, +1.0);  // vouches for the attacker
}

TEST(Investigation, SilentVerifierTimesOutWithZeroEvidence) {
  Network net{cluster_config(4)};
  net.set_answer_policy(2, AnswerPolicy::kSilent);
  net.start_all();
  net.run_for(sim::Duration::from_seconds(12.0));

  LinkQuery q;
  q.suspect = Network::id_of(1);
  q.subject = Network::id_of(3);
  q.claimed_up = true;

  std::optional<RoundResult> result;
  net.investigations(0).investigate(q, {Network::id_of(2)},
                                    [&](const RoundResult& r) { result = r; });
  // Needs timeout * (1 + retries) of simulated time.
  net.run_for(sim::Duration::from_seconds(15.0));
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->answers.size(), 1u);
  EXPECT_FALSE(result->answers[0].answered);
  EXPECT_EQ(result->answers[0].evidence, 0.0);
  EXPECT_EQ(result->timeouts, 1u);
}

TEST(Investigation, RequestsAvoidTheSuspectAsRelay) {
  // Chain n0-n1-n2: the only path to n2 goes through suspect n1, so the
  // investigation cannot reach the verifier and must time out — the
  // paper's E3 (sole connectivity provider) situation.
  Network::Config c;
  c.radio.range_m = 120.0;
  c.positions = net::chain_layout(3, 100.0);
  Network net{c};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(15.0));

  LinkQuery q;
  q.suspect = Network::id_of(1);
  q.subject = Network::id_of(2);
  q.claimed_up = true;

  std::optional<RoundResult> result;
  net.investigations(0).investigate(q, {Network::id_of(2)},
                                    [&](const RoundResult& r) { result = r; });
  net.run_for(sim::Duration::from_seconds(15.0));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->timeouts, 1u);
  EXPECT_GT(net.investigations(0).stats().route_failures, 0u);
  // The suspect never relayed an investigation DATA message.
  EXPECT_EQ(net.agent(1).stats().data_relayed, 0u);
}

TEST(Investigation, DetourAroundSuspectDelivers) {
  // Diamond n0-n1-n3 / n0-n2-n3: suspect n1 is avoided, query reaches n3
  // via n2 and the answer comes back.
  Network::Config c;
  c.radio.range_m = 120.0;
  c.positions = {{0, 0}, {100, 0}, {0, 100}, {100, 100}};
  Network net{c};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(15.0));

  LinkQuery q;
  q.suspect = Network::id_of(1);
  q.subject = Network::id_of(3);
  q.claimed_up = true;

  std::optional<RoundResult> result;
  net.investigations(0).investigate(q, {Network::id_of(3)},
                                    [&](const RoundResult& r) { result = r; });
  net.run_for(sim::Duration::from_seconds(8.0));
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->answers.size(), 1u);
  EXPECT_TRUE(result->answers[0].answered);
  EXPECT_EQ(result->answers[0].evidence, +1.0);  // n1-n3 is a real link
  EXPECT_EQ(net.agent(1).stats().data_relayed, 0u);
  EXPECT_GE(net.agent(2).stats().data_relayed, 1u);
}

TEST(Investigation, RetryRecoversFromDroppedQuery) {
  // Diamond where BOTH relays are available but the first-choice relay
  // blackholes data: the retry grows the avoid set and succeeds via the
  // other relay (Algorithm 1's sequential fallback).
  Network::Config c;
  c.radio.range_m = 120.0;
  c.positions = {{0, 0}, {100, 0}, {0, 100}, {100, 100}};
  Network net{c};
  net.set_hooks(1, std::make_unique<attacks::DropAttack>(
                       sim::Rng{1}, 1.0, /*drop_control=*/false,
                       /*drop_data=*/true));
  net.start_all();
  net.run_for(sim::Duration::from_seconds(15.0));

  // Suspect is n9 (not on any path) so the route may legitimately pick n1
  // first; n1 silently drops; the retry must route via n2.
  LinkQuery q;
  q.suspect = NodeId{9};
  q.subject = Network::id_of(3);
  q.claimed_up = true;

  std::optional<RoundResult> result;
  net.investigations(0).investigate(q, {Network::id_of(3)},
                                    [&](const RoundResult& r) { result = r; });
  net.run_for(sim::Duration::from_seconds(20.0));
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->answers.size(), 1u);
  // Either the first path already avoided n1 (fine) or a retry recovered;
  // in both cases the verifier answered.
  EXPECT_TRUE(result->answers[0].answered);
}

TEST(Investigation, EmptyVerifierListFinalizesImmediately) {
  Network net{cluster_config(3)};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(10.0));
  LinkQuery q;
  q.suspect = Network::id_of(1);
  q.subject = Network::id_of(2);
  bool done = false;
  net.investigations(0).investigate(q, {}, [&](const RoundResult& r) {
    done = true;
    EXPECT_TRUE(r.answers.empty());
  });
  EXPECT_TRUE(done);  // synchronous finalize
}

TEST(Investigation, ForwardingQueryAnswered) {
  // n0 and n2 both select n1 as MPR in a chain; ask n2 whether n1 forwards.
  Network::Config c;
  c.radio.range_m = 120.0;
  c.positions = net::chain_layout(4, 100.0);
  Network net{c};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(40.0));

  LinkQuery q;
  q.kind = QueryKind::kForwarding;
  q.suspect = Network::id_of(2);
  q.subject = Network::id_of(0);
  q.claimed_up = true;

  std::optional<RoundResult> result;
  net.investigations(0).investigate(q, {Network::id_of(1)},
                                    [&](const RoundResult& r) { result = r; });
  net.run_for(sim::Duration::from_seconds(8.0));
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->answers.size(), 1u);
  // n1 selected n2 as MPR (to reach n3) and heard its TCs forwarded.
  EXPECT_EQ(result->answers[0].evidence, +1.0);
}

}  // namespace
}  // namespace manet::core
