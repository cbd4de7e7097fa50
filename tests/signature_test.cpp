// Tests for the detector's scan triggers (§III): the contradicting HELLO
// pairs of Expressions 1-3, broadcast storms and MPR additions that
// LogTriggers reads off a node's own log, and the E2 drop rule over the
// detector's pending TCs.

#include <gtest/gtest.h>

#include "core/signatures_olsr.hpp"
#include "net/topology.hpp"
#include "scenario/network.hpp"

namespace manet::core {
namespace {

using logging::Event;
using logging::LogRecord;
using net::NodeId;
using Ids = std::vector<NodeId>;

const NodeId self{0}, n1{1}, n2{2}, n3{3}, n9{9};

template <typename... Values>
LogRecord rec(double t, Event event, const Values&... values) {
  return {sim::Time::from_seconds(t), self, event, values...};
}

LogRecord hello_recv(double t, NodeId from, const Ids& sym,
                     const Ids& asym = {}) {
  return rec(t, Event::kHelloRecv, from, 0, sym, asym, 1, 3);
}

LogRecord tc_recv(double t, NodeId orig) {
  return rec(t, Event::kTcRecv, orig, orig, 0, 0, Ids{}, 1);
}

/// Triggers with the given burst.
LogTriggers triggers(std::size_t storm_burst = 20) {
  return LogTriggers{self, storm_burst};
}

std::vector<Trigger> feed(LogTriggers& t, const LogRecord& record) {
  std::vector<Trigger> out;
  t.feed(record, out);
  return out;
}

using enum TriggerKind;

TEST(OlsrSignatures, LinkSpoofingClaimFires) {
  auto t = triggers();
  // I=n1 claims X=n2; X=n2's own HELLO omits n1. It lists n1 not even as
  // heard, so n2's HELLO also closes n1's omission slot.
  EXPECT_TRUE(feed(t, hello_recv(1, n1, {n2, n3})).empty());
  EXPECT_EQ(feed(t, hello_recv(2, n2, {n3})),
            (std::vector<Trigger>{{kClaim, n1, n2}, {kOmission, n2, n1}}));
}

TEST(OlsrSignatures, LinkSpoofingClaimSilentWhenConsistent) {
  auto t = triggers();
  feed(t, hello_recv(1, n1, {n2}));
  EXPECT_TRUE(feed(t, hello_recv(2, n2, {n1})).empty());
}

TEST(OlsrSignatures, LinkOmissionFires) {
  auto t = triggers();
  // X=n2 claims n1; I=n1's HELLO lists n2 neither SYM nor ASYM.
  feed(t, hello_recv(1, n2, {n1}));
  EXPECT_EQ(feed(t, hello_recv(2, n1, {n3})),
            (std::vector<Trigger>{{kClaim, n2, n1}, {kOmission, n1, n2}}));
}

TEST(OlsrSignatures, LinkOmissionToleratesAsymTransitional) {
  auto t = triggers();
  feed(t, hello_recv(1, n2, {n1}));
  // n1 lists n2 as ASYM (link coming up): a contradicted claim, not an
  // omission.
  EXPECT_EQ(feed(t, hello_recv(2, n1, {n3}, {n2})),
            (std::vector<Trigger>{{kClaim, n2, n1}}));
  // The omission slot stays open for a later HELLO that drops n2 for good.
  EXPECT_EQ(feed(t, hello_recv(3, n1, {n3})),
            (std::vector<Trigger>{{kOmission, n1, n2}}));
}

TEST(OlsrSignatures, OneHelloClosesEveryOpenSlotOldestFirst) {
  auto t = triggers();
  feed(t, hello_recv(1, n1, {n3}));
  feed(t, hello_recv(2, n2, {n3}));
  // n3 lists neither: it closes n1's claim and omission slots, then n2's.
  EXPECT_EQ(feed(t, hello_recv(3, n3, {})),
            (std::vector<Trigger>{{kClaim, n1, n3},
                                  {kOmission, n3, n1},
                                  {kClaim, n2, n3},
                                  {kOmission, n3, n2}}));
  // Closed slots stay closed; n3's own HELLO opened fresh ones.
  EXPECT_TRUE(feed(t, hello_recv(4, n3, {})).empty());
}

TEST(OlsrSignatures, HelloPairMatchesUpToTheWindowInclusive) {
  const auto at = [](std::int64_t us) { return sim::Time::from_us(us); };
  const auto hello = [&](sim::Time time, NodeId from, const Ids& sym) {
    return LogRecord{time, self, Event::kHelloRecv, from, 0, sym, Ids{}, 1, 3};
  };
  auto edge = triggers();
  feed(edge, hello(at(1'000'000), n1, {n2}));
  EXPECT_EQ(feed(edge, hello(at(7'000'000), n2, {})).size(), 2u);

  auto past = triggers();
  feed(past, hello(at(1'000'000), n1, {n2}));
  EXPECT_TRUE(feed(past, hello(at(7'000'001), n2, {})).empty());
}

TEST(OlsrSignatures, StormFiresOnBurstFromOneOriginator) {
  auto t = triggers(5);
  std::vector<Trigger> all;
  for (int i = 0; i < 5; ++i)
    t.feed(tc_recv(1.0 + i * 0.1, n9), all);
  EXPECT_EQ(all, (std::vector<Trigger>{{kStorm, n9, self}}));
}

TEST(OlsrSignatures, StormFiresOnEachReceptionWhileTheBurstStaysInTheWindow) {
  auto t = triggers(3);
  EXPECT_TRUE(feed(t, tc_recv(1.0, n9)).empty());
  EXPECT_TRUE(feed(t, tc_recv(2.0, n1)).empty());  // another originator
  EXPECT_TRUE(feed(t, tc_recv(3.0, n9)).empty());
  EXPECT_EQ(feed(t, tc_recv(5.0, n9)).size(), 1u);  // 1.0, 3.0, 5.0
  EXPECT_EQ(feed(t, tc_recv(6.0, n9)).size(), 1u);  // 3.0, 5.0, 6.0
  // 9.0 - 3.0 > 5 s: only 5.0, 6.0 and 9.0 remain, still three.
  EXPECT_EQ(feed(t, tc_recv(9.0, n9)).size(), 1u);
  // 12.0 - 6.0 > 5 s: two in the window, no storm.
  EXPECT_TRUE(feed(t, tc_recv(12.0, n9)).empty());
}

TEST(OlsrSignatures, StormBurstOfOneFiresOnEveryReception) {
  auto one = triggers(1);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(feed(one, tc_recv(1.0 + i * 10.0, n9)),
              (std::vector<Trigger>{{kStorm, n9, self}}));
  auto none = triggers(0);
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(feed(none, tc_recv(1.0 + i * 0.1, n9)).empty());
}

TEST(OlsrSignatures, StormIgnoresMixedOriginators) {
  auto t = triggers(5);
  for (std::uint32_t i = 0; i < 8; ++i)
    EXPECT_TRUE(feed(t, tc_recv(1.0 + i * 0.1, NodeId{i})).empty());
}

TEST(OlsrSignatures, MprReplacementFiresOnAddition) {
  auto t = triggers();
  EXPECT_EQ(feed(t, rec(1, Event::kMprChanged, Ids{n1, n2}, Ids{n2}, Ids{n3})),
            (std::vector<Trigger>{{kMprAdded, n2, NodeId{}}}));
  EXPECT_TRUE(
      feed(t, rec(2, Event::kMprChanged, Ids{n1}, Ids{}, Ids{n2})).empty());
}

TEST(OlsrSignatures, MprChangeAddingTwoGivesTwoTriggersInOrder) {
  auto t = triggers();
  const auto change =
      rec(1, Event::kMprChanged, Ids{n1, n3}, Ids{n3, n1}, Ids{});
  EXPECT_EQ(feed(t, change), (std::vector<Trigger>{{kMprAdded, n3, NodeId{}},
                                                   {kMprAdded, n1, NodeId{}}}));
}

// --- the detector's scan: the E2 drop rule and the order of rounds ---

/// A detector over a hand-written log: the network never starts, so its
/// node 0 logs only what the test appends and the clock moves only when
/// the test scans. With no HELLO listing a suspect, its rounds have no
/// verifiers and complete, in launch order, inside the scan.
class ScanRig {
 public:
  explicit ScanRig(DetectorConfig dc = {})
      : net_{config()}, detector_{net_.add_detector(0, dc)} {}

  void log(const LogRecord& record) { net_.agent(0).log().append(record); }

  /// Scans at `t`; returns the rounds launched.
  std::size_t scan_at(sim::Time t) {
    net_.run_for(t - net_.now());
    return detector_.scan_once();
  }
  std::size_t scan_at(double seconds) {
    return scan_at(sim::Time::from_seconds(seconds));
  }

  const std::deque<DetectionReport>& reports() const {
    return detector_.reports();
  }

  /// The suspect of the only report, which must be an E2 drop round.
  NodeId dropped_by() const {
    const auto& reports = detector_.reports();
    EXPECT_EQ(reports.size(), 1u);
    if (reports.empty()) return {};
    EXPECT_EQ(reports[0].tags,
              std::vector<EvidenceTag>{EvidenceTag::kE2MprMisbehaving});
    EXPECT_EQ(reports[0].subject, self);
    return reports[0].suspect;
  }

 private:
  static scenario::Network::Config config() {
    scenario::Network::Config c;
    c.positions = net::chain_layout(2, 100.0);
    return c;
  }

  scenario::Network net_;
  Detector& detector_;
};

LogRecord mprs(double t, const Ids& set) {
  return rec(t, Event::kMprChanged, set, set, Ids{});
}
LogRecord tc_sent(double t, std::int64_t seq) {
  return rec(t, Event::kTcSent, seq, 0, Ids{});
}
LogRecord echo(double t, NodeId by, std::int64_t seq) {
  return rec(t, Event::kOwnFwdHeard, by, seq, 2);
}

TEST(OlsrSignatures, DropSignatureMatchesSeqPair) {
  // Our MPRs n2, n3 and n9 were selected when we sent TC 42; only n2
  // echoed it. Once kFwdTimeout (4 s) passes, the TC accuses its lowest
  // unheard MPR, n3, and no other.
  ScanRig rig;
  rig.log(mprs(0.5, {n2, n3, n9}));
  rig.log(tc_sent(1.0, 42));
  rig.log(echo(1.1, n2, 42));
  EXPECT_EQ(rig.scan_at(3.0), 0u);  // not timed out yet
  EXPECT_EQ(rig.scan_at(6.0), 1u);
  EXPECT_EQ(rig.dropped_by(), n3);
  EXPECT_EQ(rig.scan_at(8.0), 0u);  // the TC left the pending list
}

TEST(OlsrSignatures, DropSignatureRejectsSeqMismatch) {
  // An echo of another seq does not credit the MPR.
  ScanRig rig;
  rig.log(mprs(0.5, {n2}));
  rig.log(tc_sent(1.0, 41));
  rig.log(echo(1.1, n2, 41));
  EXPECT_EQ(rig.scan_at(6.0), 0u);  // echoed: no round
  rig.log(tc_sent(7.0, 42));
  rig.log(echo(7.1, n2, 43));
  EXPECT_EQ(rig.scan_at(12.0), 1u);
  EXPECT_EQ(rig.dropped_by(), n2);
}

TEST(OlsrSignatures, DropFiresOnlyWithinOneScanIntervalOfTheTimeout) {
  // kFwdTimeout 4 s + scan_interval 5 s: a TC that first times out 9 s
  // after it was sent still fires, one a microsecond older does not.
  ScanRig edge;
  edge.log(mprs(0.5, {n2}));
  edge.log(tc_sent(1.0, 42));
  EXPECT_EQ(edge.scan_at(10.0), 1u);
  EXPECT_EQ(edge.dropped_by(), n2);

  ScanRig late;
  late.log(mprs(0.5, {n2}));
  late.log(tc_sent(1.0, 42));
  EXPECT_EQ(late.scan_at(sim::Time::from_us(10'000'001)), 0u);
}

TEST(OlsrSignatures, ScanReadsARecordAtTheScanInstantOnce) {
  // A record stamped at the scan instant is read by that scan and by no
  // later one: with storm_burst 2, one TC reception from n1 is no storm,
  // however many scans follow.
  DetectorConfig dc;
  dc.storm_burst = 2;
  ScanRig rig{dc};
  rig.log(tc_recv(3.0, n1));
  EXPECT_EQ(rig.scan_at(3.0), 0u);
  EXPECT_EQ(rig.scan_at(4.0), 0u);
}

TEST(OlsrSignatures, ScanLaunchesLogTriggersThenDropsThenAuditFailures) {
  // One scan raises all three: storms (burst 1, so every TC reception
  // from n5 fires), a drop of our TC 42 that n1 echoed and n2 did not,
  // and a failing forwarding-audit window of the WILL_ALWAYS MPR n1 over
  // the three floods from n5 it never re-forwarded.
  DetectorConfig dc;
  dc.storm_burst = 1;
  dc.forwarding_audit = true;
  ScanRig rig{dc};
  rig.log(rec(0.2, Event::kHelloRecv, n1, 0, Ids{}, Ids{}, 1, 7));
  rig.log(mprs(0.5, {n1, n2}));
  rig.log(tc_sent(1.0, 42));
  rig.log(echo(1.1, n1, 42));
  const NodeId n5{5};
  for (std::int64_t seq = 1; seq <= 3; ++seq)
    rig.log(rec(2.0 + 0.1 * static_cast<double>(seq), Event::kTcRecv, n5, n5,
                seq, 0, Ids{}, 1));
  // The second and third storms against n5 fall in its cooldown.
  EXPECT_EQ(rig.scan_at(6.0), 3u);
  using Tag = EvidenceTag;
  const auto& reports = rig.reports();
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0].suspect, n5);
  EXPECT_EQ(reports[0].tags,
            (std::vector<Tag>{Tag::kE2MprMisbehaving, Tag::kSignatureMatch}));
  EXPECT_EQ(reports[1].suspect, n2);
  EXPECT_EQ(reports[1].tags, std::vector<Tag>{Tag::kE2MprMisbehaving});
  EXPECT_EQ(reports[2].suspect, n1);
  EXPECT_EQ(reports[2].tags,
            (std::vector<Tag>{Tag::kE2MprMisbehaving, Tag::kSignatureMatch}));
}

}  // namespace
}  // namespace manet::core
