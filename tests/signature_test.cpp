// Tests for the signature engine and the predefined OLSR intrusion
// signatures (the paper's "partially ordered sequences of events").

#include <gtest/gtest.h>

#include "core/signature.hpp"
#include "core/signatures_olsr.hpp"

namespace manet::core {
namespace {

using logging::Event;
using logging::Key;
using logging::LogRecord;
using logging::RecordView;
using net::NodeId;
using Ids = std::vector<NodeId>;

template <typename... Values>
LogRecord rec(double t, Event event, const Values&... values) {
  return {sim::Time::from_seconds(t), NodeId{0}, event, values...};
}

EventPattern on_event(Event event) {
  return {std::string{logging::schema(event).name},
          [event](const RecordView& r) { return r.event() == event; }};
}

// Stand-ins for the abstract events of the matcher tests.
constexpr Event kA = Event::kDaemonStart;
constexpr Event kB = Event::kDaemonStop;
constexpr Event kX = Event::kTablesReset;
constexpr Event kY = Event::kDaemonStop;

TEST(SignatureMatcher, SimpleOrderedSequence) {
  Signature sig;
  sig.name = "ab";
  sig.window = sim::Duration::from_seconds(10);
  sig.steps.resize(2);
  sig.steps[0].pattern = on_event(kA);
  sig.steps[1].pattern = on_event(kB);
  sig.steps[1].after = {0};

  SignatureMatcher m;
  m.add_signature(sig);
  EXPECT_TRUE(m.feed(rec(1, kA)).empty());
  const auto matches = m.feed(rec(2, kB));
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].signature, "ab");
  EXPECT_EQ(matches[0].records.size(), 2u);
}

TEST(SignatureMatcher, OrderingEnforced) {
  Signature sig;
  sig.name = "ab";
  sig.steps.resize(2);
  sig.steps[0].pattern = on_event(kA);
  sig.steps[1].pattern = on_event(kB);
  sig.steps[1].after = {0};

  SignatureMatcher m;
  m.add_signature(sig);
  // b before a: the b cannot match step 1 (dependency unmet), and a alone
  // is incomplete.
  EXPECT_TRUE(m.feed(rec(1, kB)).empty());
  EXPECT_TRUE(m.feed(rec(2, kA)).empty());
  // now a fresh b completes the partial opened by the a.
  EXPECT_EQ(m.feed(rec(3, kB)).size(), 1u);
}

TEST(SignatureMatcher, UnorderedStepsMatchEitherWay) {
  Signature sig;
  sig.name = "xy";
  sig.steps.resize(2);
  sig.steps[0].pattern = on_event(kX);
  sig.steps[1].pattern = on_event(kY);
  // no `after`: partial order allows any interleaving

  SignatureMatcher m;
  m.add_signature(sig);
  EXPECT_TRUE(m.feed(rec(1, kY)).empty());
  EXPECT_EQ(m.feed(rec(2, kX)).size(), 1u);
}

TEST(SignatureMatcher, WindowExpiresPartials) {
  Signature sig;
  sig.name = "ab";
  sig.window = sim::Duration::from_seconds(5);
  sig.steps.resize(2);
  sig.steps[0].pattern = on_event(kA);
  sig.steps[1].pattern = on_event(kB);
  sig.steps[1].after = {0};

  SignatureMatcher m;
  m.add_signature(sig);
  m.feed(rec(1, kA));
  // 10 s later: the partial is stale, b must not complete it.
  EXPECT_TRUE(m.feed(rec(11, kB)).empty());
}

TEST(SignatureMatcher, OptionalStepNotRequired) {
  Signature sig;
  sig.name = "a-opt-b";
  sig.steps.resize(2);
  sig.steps[0].pattern = on_event(kA);
  sig.steps[1].pattern = on_event(kB);
  sig.steps[1].optional = true;

  SignatureMatcher m;
  m.add_signature(sig);
  EXPECT_EQ(m.feed(rec(1, kA)).size(), 1u);
}

TEST(SignatureMatcher, CorrelationFieldTiesRecords) {
  Signature sig;
  sig.name = "two_from_same";
  sig.correlate_field = Key::kFrom;
  sig.steps.resize(2);
  sig.steps[0].pattern = on_event(Event::kPacketParseError);
  sig.steps[1].pattern = on_event(Event::kPacketParseError);
  sig.steps[1].after = {0};

  SignatureMatcher m;
  m.add_signature(sig);
  const auto r1 = rec(1, Event::kPacketParseError, NodeId{1});
  const auto r2 = rec(2, Event::kPacketParseError, NodeId{2});
  const auto r3 = rec(3, Event::kPacketParseError, NodeId{1});
  EXPECT_TRUE(m.feed(r1).empty());
  EXPECT_TRUE(m.feed(r2).empty());  // different correlation value
  const auto matches = m.feed(r3);
  ASSERT_GE(matches.size(), 1u);
  EXPECT_EQ(matches[0].correlated, NodeId{1});
}

TEST(SignatureMatcher, ConstraintVetoesCompletion) {
  Signature sig;
  sig.name = "constrained";
  sig.steps.resize(1);
  sig.steps[0].pattern = on_event(Event::kHnaRecv);
  sig.constraint = [](Signature::Matched recs) {
    return recs[0]->integer(Key::kCount) == 1;
  };

  SignatureMatcher m;
  m.add_signature(sig);
  EXPECT_TRUE(m.feed(rec(1, Event::kHnaRecv, NodeId{4}, 0)).empty());
  EXPECT_EQ(m.feed(rec(2, Event::kHnaRecv, NodeId{4}, 1)).size(), 1u);
}

TEST(SignatureMatcher, MultipleSignaturesIndependent) {
  SignatureMatcher m;
  Signature s1;
  s1.name = "s1";
  s1.steps.resize(1);
  s1.steps[0].pattern = on_event(kA);
  Signature s2;
  s2.name = "s2";
  s2.steps.resize(1);
  s2.steps[0].pattern = on_event(kB);
  m.add_signature(s1);
  m.add_signature(s2);
  EXPECT_EQ(m.feed(rec(1, kA))[0].signature, "s1");
  EXPECT_EQ(m.feed(rec(2, kB))[0].signature, "s2");
}

// --- predefined OLSR signatures ---

LogRecord hello_recv(double t, NodeId from, const Ids& sym,
                     const Ids& asym = {}) {
  return rec(t, Event::kHelloRecv, from, 0, sym, asym, 1, 3);
}

LogRecord tc_recv(double t, NodeId orig) {
  return rec(t, Event::kTcRecv, orig, orig, 0, 0, Ids{}, 1);
}

TEST(OlsrSignatures, LinkSpoofingClaimFires) {
  SignatureMatcher m;
  m.add_signature(
      link_spoofing_claim_signature(sim::Duration::from_seconds(6)));
  // I=n1 claims X=n2; X=n2's own HELLO omits n1.
  m.feed(hello_recv(1, NodeId{1}, {NodeId{2}, NodeId{3}}));
  const auto matches = m.feed(hello_recv(2, NodeId{2}, {NodeId{3}}));
  ASSERT_GE(matches.size(), 1u);
  EXPECT_EQ(matches[0].signature, "link_spoofing_claim");
}

TEST(OlsrSignatures, LinkSpoofingClaimSilentWhenConsistent) {
  SignatureMatcher m;
  m.add_signature(
      link_spoofing_claim_signature(sim::Duration::from_seconds(6)));
  m.feed(hello_recv(1, NodeId{1}, {NodeId{2}}));
  EXPECT_TRUE(m.feed(hello_recv(2, NodeId{2}, {NodeId{1}})).empty());
}

TEST(OlsrSignatures, LinkOmissionFires) {
  SignatureMatcher m;
  m.add_signature(link_omission_signature(sim::Duration::from_seconds(6)));
  // X=n2 claims n1; I=n1's HELLO lists n2 neither SYM nor ASYM.
  m.feed(hello_recv(1, NodeId{2}, {NodeId{1}}));
  const auto matches = m.feed(hello_recv(2, NodeId{1}, {NodeId{3}}));
  ASSERT_GE(matches.size(), 1u);
  EXPECT_EQ(matches[0].signature, "link_omission");
}

TEST(OlsrSignatures, LinkOmissionToleratesAsymTransitional) {
  SignatureMatcher m;
  m.add_signature(link_omission_signature(sim::Duration::from_seconds(6)));
  m.feed(hello_recv(1, NodeId{2}, {NodeId{1}}));
  // n1 lists n2 as ASYM (link coming up) — not an omission.
  EXPECT_TRUE(m.feed(hello_recv(2, NodeId{1}, {NodeId{3}}, {NodeId{2}})).empty());
}

TEST(OlsrSignatures, StormFiresOnBurstFromOneOriginator) {
  SignatureMatcher m;
  m.add_signature(storm_signature(5, sim::Duration::from_seconds(5)));
  std::vector<SignatureMatch> all;
  for (int i = 0; i < 5; ++i) {
    auto got = m.feed(tc_recv(1.0 + i * 0.1, NodeId{9}));
    all.insert(all.end(), got.begin(), got.end());
  }
  ASSERT_GE(all.size(), 1u);
  EXPECT_EQ(all[0].signature, "broadcast_storm");
  EXPECT_EQ(all[0].correlated, NodeId{9});
}

TEST(OlsrSignatures, StormIgnoresMixedOriginators) {
  SignatureMatcher m;
  m.add_signature(storm_signature(5, sim::Duration::from_seconds(5)));
  for (int i = 0; i < 8; ++i) {
    // all different
    EXPECT_TRUE(
        m.feed(tc_recv(1.0 + i * 0.1, NodeId{static_cast<std::uint32_t>(i)}))
            .empty());
  }
}

TEST(OlsrSignatures, DropSignatureMatchesSeqPair) {
  SignatureMatcher m;
  m.add_signature(drop_signature(sim::Duration::from_seconds(10)));
  m.feed(rec(1, Event::kTcSent, 42, 0, Ids{}));
  const auto matches = m.feed(rec(4, Event::kMprFwdTimeout, NodeId{3}, 42));
  ASSERT_GE(matches.size(), 1u);
  EXPECT_EQ(matches[0].signature, "mpr_drop");
}

TEST(OlsrSignatures, DropSignatureRejectsSeqMismatch) {
  SignatureMatcher m;
  m.add_signature(drop_signature(sim::Duration::from_seconds(10)));
  m.feed(rec(1, Event::kTcSent, 42, 0, Ids{}));
  EXPECT_TRUE(m.feed(rec(4, Event::kMprFwdTimeout, NodeId{3}, 43)).empty());
}

TEST(OlsrSignatures, MprReplacementFiresOnAddition) {
  SignatureMatcher m;
  m.add_signature(mpr_replacement_signature());
  const auto change = rec(1, Event::kMprChanged, Ids{NodeId{1}, NodeId{2}},
                          Ids{NodeId{2}}, Ids{NodeId{3}});
  EXPECT_EQ(m.feed(change).size(), 1u);
  const auto pure_removal = rec(2, Event::kMprChanged, Ids{NodeId{1}}, Ids{},
                                Ids{NodeId{2}});
  EXPECT_TRUE(m.feed(pure_removal).empty());
}

}  // namespace
}  // namespace manet::core
