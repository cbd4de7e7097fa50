// Checkpoint/restore of the full experiment state: the writer/reader
// primitives, the error paths of the versioned binary format, and the
// headline contract — save at a round boundary, restore into a fresh
// process image, continue, and every subsequent round is byte-identical
// to the run that never stopped. Exercised at early, middle and final
// save points, both pristine and mid-fault-plan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "byte_digest.hpp"
#include "faults/checkpoint.hpp"
#include "faults/fault_plan.hpp"
#include "logging/log_store.hpp"
#include "obs/obs.hpp"
#include "olsr/wire.hpp"
#include "scenario/trust_experiment.hpp"

namespace manet {
namespace {

using faults::CheckpointError;
using faults::CheckpointReader;
using faults::CheckpointWriter;
using scenario::TrustExperiment;

// --- writer/reader primitives --------------------------------------------

TEST(CheckpointWire, PrimitivesRoundTrip) {
  CheckpointWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(-0.125);
  w.boolean(true);
  w.time(sim::Time::from_ms(1250));
  w.node(net::NodeId{7});
  w.count(3);
  w.str("hello");
  // A blob is count + raw bytes; written here in its two halves.
  const std::vector<std::uint8_t> blob{9, 8, 7};
  w.count(blob.size());
  w.raw(blob.data(), blob.size());

  const auto bytes = w.take();
  CheckpointReader r{bytes};
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), -0.125);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.time().us(), sim::Time::from_ms(1250).us());
  EXPECT_EQ(r.node(), net::NodeId{7});
  EXPECT_EQ(r.count(), 3u);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.blob(), blob);
  EXPECT_TRUE(r.at_end());
}

TEST(CheckpointWire, TruncationThrowsInsteadOfReadingPastTheEnd) {
  CheckpointWriter w;
  w.u32(123);
  auto bytes = w.take();
  bytes.pop_back();
  CheckpointReader r{bytes};
  EXPECT_THROW(r.u32(), CheckpointError);
}

TEST(CheckpointWire, CountIsBoundedByRemainingBytes) {
  // A corrupt length prefix larger than the remaining payload must throw
  // at the count read, not allocate or scan gigabytes.
  CheckpointWriter w;
  w.count(1u << 30);
  const auto bytes = w.take();
  CheckpointReader r{bytes};
  EXPECT_THROW(r.count(), CheckpointError);
}

// --- full save/restore round trip ----------------------------------------

TrustExperiment::Config checkpoint_config(bool faulted) {
  TrustExperiment::Config c;
  c.seed = 29;
  c.num_nodes = 16;
  c.num_liars = 4;
  if (faulted) {
    // The plan straddles every save point: node 6 is down across the
    // mid-run checkpoint, so the snapshot must carry a mid-fault world
    // (down host, injector timeline, liveness-gated detector).
    c.fault_plan = faults::FaultPlan::parse(
        "20000 crash n6\n"
        "24000 brownout 0 0 120 120 0.6\n"
        "31000 brownout_clear 0 0 120 120\n"
        "35000 restart n6\n");
  }
  return c;
}

/// Full-precision fingerprint of one round: every field that reaches any
/// CSV, so "fingerprints equal" == "per-round output byte-identical".
std::string fingerprint(const TrustExperiment::RoundSnapshot& s) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "r%d at=%lld d=%.17g m=%.17g v=%d %zu/%llu/%llu/%d",
                s.round, static_cast<long long>(s.at.us()), s.detect, s.margin,
                static_cast<int>(s.verdict), s.down,
                static_cast<unsigned long long>(s.suppressed),
                static_cast<unsigned long long>(s.false_convictions),
                static_cast<int>(s.converged));
  std::string out = buf;
  for (const auto& [id, t] : s.trust) {
    std::snprintf(buf, sizeof(buf), " %s=%.17g", id.to_string().c_str(), t);
    out += buf;
  }
  return out;
}

void expect_round_trip_at(int save_round, bool faulted) {
  const int total_rounds = 6;
  const auto config = checkpoint_config(faulted);

  // The reference run never stops.
  TrustExperiment reference{config};
  reference.setup();
  std::vector<std::string> expected;
  for (int r = 0; r < total_rounds; ++r) {
    const auto snap = reference.run_round();
    if (r >= save_round) expected.push_back(fingerprint(snap));
  }

  // The checkpointed run saves at `save_round`, restores into a fresh
  // object graph, and continues.
  TrustExperiment original{config};
  original.setup();
  for (int r = 0; r < save_round; ++r) original.run_round();
  const auto bytes = original.save_checkpoint();
  ASSERT_FALSE(bytes.empty());

  const auto restored = TrustExperiment::restore_checkpoint(config, bytes);
  std::vector<std::string> actual;
  for (int r = save_round; r < total_rounds; ++r)
    actual.push_back(fingerprint(restored->run_round()));

  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(actual[i], expected[i]) << "post-restore round " << i;
}

class CheckpointRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CheckpointRoundTrip, PristineRunContinuesByteIdentically) {
  expect_round_trip_at(GetParam(), /*faulted=*/false);
}

TEST_P(CheckpointRoundTrip, FaultedRunContinuesByteIdentically) {
  expect_round_trip_at(GetParam(), /*faulted=*/true);
}

// Save points: after the first round, mid-run (mid-fault-plan for the
// faulted variant), and after the last round.
INSTANTIATE_TEST_SUITE_P(SavePoints, CheckpointRoundTrip,
                         ::testing::Values(1, 3, 6));

// A restored experiment is itself checkpointable again (checkpoint of a
// checkpoint), and the chain still matches the uninterrupted run.
TEST(Checkpoint, ChainedCheckpointsStillMatch) {
  const auto config = checkpoint_config(/*faulted=*/true);

  TrustExperiment reference{config};
  reference.setup();
  std::string expected;
  for (int r = 0; r < 5; ++r) expected = fingerprint(reference.run_round());

  TrustExperiment first{config};
  first.setup();
  first.run_round();
  const auto bytes1 = first.save_checkpoint();
  auto second = TrustExperiment::restore_checkpoint(config, bytes1);
  second->run_round();
  second->run_round();
  const auto bytes2 = second->save_checkpoint();
  auto third = TrustExperiment::restore_checkpoint(config, bytes2);
  std::string actual;
  for (int r = 3; r < 5; ++r) actual = fingerprint(third->run_round());

  EXPECT_EQ(actual, expected);
}

// A broadcast still on the air at the save point is one transmission with
// a frame per receiver. Restored, its frames share one payload again, so
// its receivers parse it once (manet_olsr_frames_decoded_total counts one
// decode per payload), and the run continues as if it never stopped.
TEST(Checkpoint, RestoredBroadcastIsDecodedOncePerTransmission) {
  using Frame = net::InFlightFrame;
  const auto transmissions = [](const std::vector<Frame>& frames) {
    std::set<std::tuple<net::NodeId, net::NodeId, sim::Time, net::Bytes>>
        distinct;
    for (const auto& f : frames)
      distinct.emplace(f.transmitter, f.link_dest, f.sent_at, f.payload);
    return distinct.size();
  };

  auto config = checkpoint_config(/*faulted=*/false);
  config.attack = TrustExperiment::AttackKind::kGrayhole;
  config.num_nodes = 49;
  config.num_liars = 0;
  TrustExperiment original{config};
  original.setup();
  // Save at a round boundary where a transmission has several frames on
  // the air.
  for (int r = 0; r < 8; ++r) {
    original.run_round();
    const auto listed = original.network().medium().in_flight();
    if (transmissions(listed) < listed.size()) break;
  }
  const auto bytes = original.save_checkpoint();
  const sim::Time cut = original.network().now();
  const auto expected = fingerprint(original.run_round());

  obs::Context ctx;
  obs::Scope scope{&ctx};
  const auto decoded = [&ctx] {
    return ctx.snapshot().counter_value(
        obs::hot_name(obs::Hot::kFramesDecoded));
  };
  auto restored = TrustExperiment::restore_checkpoint(config, bytes);
  auto& medium = restored->network().medium();
  const auto restored_on_air = [cut](const std::vector<Frame>& air) {
    return std::ranges::count_if(
        air, [cut](const Frame& f) { return f.sent_at <= cut; });
  };
  auto air = medium.in_flight();
  const auto restored_count = restored_on_air(air);
  ASSERT_LT(transmissions(air), air.size());

  // Step until every restored frame has landed, collecting what each step
  // takes off the air. New transmissions land in the window too; every
  // transmission with a landed frame is decoded once.
  const auto decoded_before = decoded();
  std::vector<Frame> landed;
  while (restored_on_air(air) > 0) {
    ASSERT_TRUE(restored->network().sim().step());
    auto now = medium.in_flight();
    std::set<std::uint64_t> still;
    for (const auto& f : now) still.insert(f.seq);
    for (auto& f : air)
      if (!still.count(f.seq)) landed.push_back(std::move(f));
    air = std::move(now);
  }
  ASSERT_GE(restored_on_air(landed), restored_count);
  EXPECT_EQ(decoded() - decoded_before, transmissions(landed));

  EXPECT_EQ(fingerprint(restored->run_round()), expected);
}

// --- pinned bytes ---------------------------------------------------------

// The round-trip tests above would pass a layout change made the same way
// to the save and the load side; these digests pin the bytes themselves.
// They are keyed by kCheckpointVersion: a layout change bumps the version
// and regenerates them (tests/fixtures/README.md).
struct PinnedCheckpoints {
  std::uint32_t version;
  std::uint64_t pristine, faulted, grayhole;
};
constexpr PinnedCheckpoints kPinnedCheckpoints{
    5, 0x95048de5ed6b6b77ull, 0x7164f1987a99457cull, 0xe8ffcb447600b342ull};

std::uint64_t checkpoint_digest_after_two_rounds(
    const TrustExperiment::Config& config) {
  TrustExperiment exp{config};
  exp.setup();
  for (int r = 0; r < 2; ++r) exp.run_round();
  return test_digest::fnv1a64(exp.save_checkpoint());
}

TEST(CheckpointBytes, PinnedPerVersion) {
  ASSERT_EQ(faults::kCheckpointVersion, kPinnedCheckpoints.version)
      << "the layout changed: regenerate the digests below";
  auto grayhole = checkpoint_config(/*faulted=*/false);
  grayhole.attack = TrustExperiment::AttackKind::kGrayhole;
  grayhole.num_liars = 0;
  EXPECT_EQ(checkpoint_digest_after_two_rounds(checkpoint_config(false)),
            kPinnedCheckpoints.pristine);
  EXPECT_EQ(checkpoint_digest_after_two_rounds(checkpoint_config(true)),
            kPinnedCheckpoints.faulted);
  EXPECT_EQ(checkpoint_digest_after_two_rounds(grayhole),
            kPinnedCheckpoints.grayhole);
}

// --- preconditions and error paths ---------------------------------------

// The sharded engine's deliveries wait in shard mailboxes and lane queues
// that no checkpoint section holds, so both directions refuse it up front.
TEST(Checkpoint, SaveRefusesTheShardedEngine) {
  auto config = checkpoint_config(false);
  config.engine = sim::EngineKind::kSharded;
  config.engine_threads = 1;
  config.shards = 2;
  TrustExperiment exp{config};
  exp.setup();
  EXPECT_THROW(exp.save_checkpoint(), std::logic_error);

  TrustExperiment sequential{checkpoint_config(false)};
  sequential.setup();
  const auto bytes = sequential.save_checkpoint();
  EXPECT_THROW(TrustExperiment::restore_checkpoint(config, bytes),
               std::invalid_argument);
}

TEST(Checkpoint, RestoreRejectsCorruptMagic) {
  const auto config = checkpoint_config(false);
  TrustExperiment exp{config};
  exp.setup();
  exp.run_round();
  auto bytes = exp.save_checkpoint();
  bytes[0] ^= 0xFF;
  EXPECT_THROW(TrustExperiment::restore_checkpoint(config, bytes),
               CheckpointError);
}

TEST(Checkpoint, RestoreRejectsFutureVersion) {
  const auto config = checkpoint_config(false);
  TrustExperiment exp{config};
  exp.setup();
  exp.run_round();
  auto bytes = exp.save_checkpoint();
  bytes[4] += 1;  // version field, little-endian low byte
  EXPECT_THROW(TrustExperiment::restore_checkpoint(config, bytes),
               CheckpointError);
}

TEST(Checkpoint, RestoreRejectsConfigMismatch) {
  const auto config = checkpoint_config(false);
  TrustExperiment exp{config};
  exp.setup();
  exp.run_round();
  const auto bytes = exp.save_checkpoint();

  auto wrong_nodes = config;
  wrong_nodes.num_nodes = 12;
  EXPECT_THROW(TrustExperiment::restore_checkpoint(wrong_nodes, bytes),
               CheckpointError);

  auto wrong_seed = config;
  wrong_seed.seed = 30;
  EXPECT_THROW(TrustExperiment::restore_checkpoint(wrong_seed, bytes),
               CheckpointError);

  // A pristine config cannot restore a faulted snapshot (injector
  // presence mismatch) and vice versa.
  auto faulted_cfg = checkpoint_config(true);
  TrustExperiment faulted_exp{faulted_cfg};
  faulted_exp.setup();
  faulted_exp.run_round();
  const auto faulted_bytes = faulted_exp.save_checkpoint();
  auto pristine_cfg = checkpoint_config(false);
  pristine_cfg.seed = faulted_cfg.seed;
  EXPECT_THROW(TrustExperiment::restore_checkpoint(pristine_cfg, faulted_bytes),
               CheckpointError);
}

TEST(Checkpoint, RestoreRejectsTruncationAndTrailingGarbage) {
  const auto config = checkpoint_config(false);
  TrustExperiment exp{config};
  exp.setup();
  exp.run_round();
  auto bytes = exp.save_checkpoint();

  auto truncated = bytes;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(TrustExperiment::restore_checkpoint(config, truncated),
               CheckpointError);

  auto padded = bytes;
  padded.push_back(0);
  EXPECT_THROW(TrustExperiment::restore_checkpoint(config, padded),
               CheckpointError);
}

// Single-bit corruption anywhere in a snapshot: restore either succeeds or
// throws CheckpointError, never another exception type. The snapshot is a
// small faulted run saved mid-plan, so it carries a down host, pending
// forwards, in-flight frames and the injector cursor.
TEST(Checkpoint, RestoreThrowsOnlyCheckpointErrorUnderBitFlips) {
  auto config = checkpoint_config(/*faulted=*/true);
  config.num_nodes = 8;
  config.num_liars = 2;
  TrustExperiment exp{config};
  exp.setup();
  exp.run_round();
  const auto bytes = exp.save_checkpoint();
  std::size_t rejected = 0;
  for (std::size_t at = 0; at < bytes.size(); at += 193) {
    for (const std::uint8_t mask : {0x01, 0x40}) {
      auto bent = bytes;
      bent[at] ^= mask;
      try {
        TrustExperiment::restore_checkpoint(config, bent);
      } catch (const CheckpointError&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "flip of byte " << at << " (mask " << int{mask}
                      << ") escaped as: " << e.what();
      }
    }
  }
  EXPECT_GT(rejected, 0u);
}

// A pending forward is saved as an OLSR packet in wire form. Bytes that no
// longer parse are a corrupt snapshot: CheckpointError, not olsr::WireError.
TEST(Checkpoint, RestoreRejectsUnparsableForwardBytes) {
  const auto config = checkpoint_config(/*faulted=*/false);
  TrustExperiment exp{config};
  exp.setup();
  exp.run_round();
  // Round boundaries are quiet, so park one jittered TC forward by hand.
  olsr::Message tc;
  tc.header.type = olsr::MessageType::kTc;
  tc.header.originator = net::NodeId{5};
  tc.header.seq_num = 4242;
  tc.body = olsr::TcMessage{7, {net::NodeId{2}, net::NodeId{3}}};
  exp.network().agent(3).restore_pending_forward(
      tc, exp.network().now() + sim::Duration::from_ms(20));
  const auto bytes = exp.save_checkpoint();

  const auto wire = olsr::serialize_packet(olsr::OlsrPacket{0, {tc}});
  const auto at = std::search(bytes.begin(), bytes.end(), wire.begin(),
                              wire.end()) -
                  bytes.begin();
  ASSERT_LT(static_cast<std::size_t>(at), bytes.size());
  EXPECT_NO_THROW(TrustExperiment::restore_checkpoint(config, bytes));
  auto bent = bytes;
  // The packet's length field (network order) stops matching its bytes.
  bent[static_cast<std::size_t>(at) + 1] ^= 0x01;
  EXPECT_THROW(TrustExperiment::restore_checkpoint(config, bent),
               CheckpointError);
}

// The routing section is the one whose entries index each other: route_to
// walks parent chains by binary search over the destinations. A crafted
// section with mismatched lengths, unsorted or duplicate destinations, or
// out-of-range distances and parents must be rejected at decode, not read
// past the end of an array later (CI runs this suite under ASan too).
TEST(Checkpoint, RestoreRejectsInconsistentRoutingSection) {
  const auto config = checkpoint_config(false);
  TrustExperiment exp{config};
  exp.setup();
  exp.run_round();
  const auto bytes = exp.save_checkpoint();

  // Agent 0's section starts with its own id, so it occurs once.
  const auto good = exp.network().agent(0).routes().persist();
  ASSERT_GE(good.dests.size(), 2u);
  const auto encode = [](const olsr::RoutingTable::Persisted& p) {
    CheckpointWriter w;
    faults::transfer_routes(w, p);
    return w.take();
  };
  const auto section = encode(good);
  const auto at =
      std::search(bytes.begin(), bytes.end(), section.begin(), section.end());
  ASSERT_NE(at, bytes.end());
  const auto splice = [&](const olsr::RoutingTable::Persisted& p) {
    std::vector<std::uint8_t> out(bytes.begin(), at);
    const auto crafted = encode(p);
    out.insert(out.end(), crafted.begin(), crafted.end());
    out.insert(out.end(), at + static_cast<std::ptrdiff_t>(section.size()),
               bytes.end());
    return out;
  };
  EXPECT_NO_THROW(TrustExperiment::restore_checkpoint(config, splice(good)));

  auto short_dist = good;  // dist shorter than dests
  short_dist.dist.pop_back();
  auto unsorted = good;
  std::swap(unsorted.dests[0], unsorted.dests[1]);
  auto duplicate = good;
  duplicate.dests[1] = duplicate.dests[0];
  auto far = good;  // more hops than there are destinations
  far.dist[0] = 1000;
  auto orphan = good;  // a parent that is no destination
  orphan.dist[0] = 2;
  orphan.parent[0] = net::NodeId{999};
  for (const auto& bad : {short_dist, unsorted, duplicate, far, orphan})
    EXPECT_THROW(TrustExperiment::restore_checkpoint(config, splice(bad)),
                 CheckpointError);
}

TEST(Checkpoint, RestoreRejectsUnorderedAnswerPools) {
  // The pipeline finds a disputed link's pool by binary search, so the
  // detector section must hold its pools in strictly ascending link order.
  const auto config = checkpoint_config(false);
  TrustExperiment exp{config};
  exp.setup();
  exp.run_round();
  const auto image = faults::detector_image(exp.detector());
  const core::DetectionPipeline::PooledAnswer answer{net::NodeId{3}, -1.0,
                                                     true};
  const auto with_pools =
      [&](std::vector<std::pair<net::NodeId, net::NodeId>> links) {
        auto crafted = image;
        crafted.state.answer_pool.clear();
        for (const auto& link : links)
          crafted.state.answer_pool.push_back({link, {answer}});
        return crafted;
      };
  const net::NodeId a{1}, b{2}, c{5};
  EXPECT_NO_THROW(faults::restore_detector(with_pools({{a, b}, {a, c}, {b, a}}),
                                           exp.detector()));
  EXPECT_THROW(
      faults::restore_detector(with_pools({{a, c}, {a, b}}), exp.detector()),
      CheckpointError);
  EXPECT_THROW(
      faults::restore_detector(with_pools({{a, b}, {a, b}}), exp.detector()),
      CheckpointError);
}

TEST(Checkpoint, RestoreRejectsUnorderedTrustRows) {
  // TrustStore finds a subject by binary search, so both slabs of the
  // trust section must ascend strictly by subject: rows (n5, 0.9),
  // (n1, 0.2) would otherwise read trust(n1) = trust(n5) = 0.4.
  const auto config = checkpoint_config(false);
  TrustExperiment exp{config};
  exp.setup();
  exp.run_round();
  const auto image = faults::detector_image(exp.detector());
  using Counter = trust::TrustStore::Counter;
  const auto with_rows = [&](std::vector<std::pair<net::NodeId, double>> trust,
                             std::vector<Counter> interactions) {
    auto crafted = image;
    crafted.trust_rows = std::move(trust);
    crafted.interaction_rows = std::move(interactions);
    return crafted;
  };
  const net::NodeId n1{1}, n5{5};
  faults::restore_detector(with_rows({{n1, 0.2}, {n5, 0.9}},
                                     {{n1, 1, 2}, {n5, 0, 1}}),
                           exp.detector());
  EXPECT_DOUBLE_EQ(exp.detector().trust_store().trust(n1), 0.2);
  EXPECT_DOUBLE_EQ(exp.detector().trust_store().trust(n5), 0.9);
  for (const auto& bad :
       {with_rows({{n5, 0.9}, {n1, 0.2}}, {}),
        with_rows({{n5, 0.9}, {n5, 0.2}}, {}),
        with_rows({}, {{n5, 0, 1}, {n1, 1, 2}}),
        with_rows({}, {{n5, 0, 1}, {n5, 1, 2}})})
    EXPECT_THROW(faults::restore_detector(bad, exp.detector()),
                 CheckpointError);
}

TEST(Checkpoint, RestoreRejectsUnorderedAuditorLists) {
  // The forwarding auditor credits a re-broadcast by binary search over a
  // pending flood's audited and credited MPRs: with audited = [n5, n2],
  // n2's re-broadcasts would never be credited and its window would count
  // floods it forwarded as missed. Its WILL_ALWAYS neighbors, the
  // detector's E2 bookkeeping and its cooldown links are kept ascending
  // the same way, and the scan cursor may not pass the end of the log.
  const auto config = checkpoint_config(false);
  TrustExperiment exp{config};
  exp.setup();
  exp.run_round();
  const auto image = faults::detector_image(exp.detector());
  using Ids = std::vector<net::NodeId>;
  using State = core::Detector::Persisted;
  const auto with = [&image](const std::function<void(State&)>& bend) {
    auto crafted = image;
    bend(crafted.state);
    return crafted;
  };
  const auto tc = [](Ids mprs, Ids heard) {
    return core::Detector::SentTc{sim::Time{}, 1, std::move(mprs),
                                  std::move(heard)};
  };
  const auto flood = [](Ids audited, Ids credited) {
    core::ForwardingAuditor::PendingFlood f;
    f.orig = net::NodeId{9};
    f.audited = std::move(audited);
    f.credited = std::move(credited);
    return f;
  };
  const net::NodeId n2{2}, n5{5};
  const auto end_of_log = exp.detector().log().total_appended();
  const sim::Time at{};
  const auto ordered = with([&](State& s) {
    s.next_scan = end_of_log;
    s.current_mprs = {n2, n5};
    s.pending_tcs = {tc({n2, n5}, {n5})};
    s.last_investigated = {{{n2, n5}, at}, {{n5, n2}, at}};
    s.auditor.always = {n2, n5};
    s.auditor.pending = {flood({n2, n5}, {n2})};
  });
  EXPECT_NO_THROW(faults::restore_detector(ordered, exp.detector()));
  for (const auto& bad : {
           with([&](State& s) { s.next_scan = end_of_log + 1; }),
           with([&](State& s) {
             s.last_investigated = {{{n5, n2}, at}, {{n2, n5}, at}};
           }),
           with([&](State& s) {
             s.last_investigated = {{{n2, n5}, at}, {{n2, n5}, at}};
           }),
           with([&](State& s) { s.auditor.always = {n5, n2}; }),
           with([&](State& s) { s.auditor.always = {n2, n2}; }),
           with([&](State& s) { s.current_mprs = {n5, n2}; }),
           with([&](State& s) { s.current_mprs = {n2, n2}; }),
           with([&](State& s) { s.pending_tcs = {tc({n5, n2}, {})}; }),
           with([&](State& s) { s.pending_tcs = {tc({n2, n5}, {n5, n2})}; }),
           with([&](State& s) { s.pending_tcs = {tc({n2}, {n2, n2})}; }),
           with([&](State& s) { s.auditor.pending = {flood({n5, n2}, {})}; }),
           with([&](State& s) { s.auditor.pending = {flood({n2, n2}, {})}; }),
           with([&](State& s) {
             s.auditor.pending = {flood({n2, n5}, {n5, n2})};
           }),
       })
    EXPECT_THROW(faults::restore_detector(bad, exp.detector()),
                 CheckpointError);
}

TEST(Checkpoint, RestoreRejectsUnorderedOlsrTables) {
  const auto config = checkpoint_config(false);
  TrustExperiment exp{config};
  exp.setup();
  exp.run_round();
  const auto bytes = exp.save_checkpoint();

  // Crafted sections: agent 0 is re-encoded with one table bent through
  // the restore surfaces (which store slabs verbatim), spliced over its
  // saved section, and put back for the next case.
  auto& agent = exp.network().agent(0);
  const auto encode = [&agent] {
    CheckpointWriter w;
    faults::encode_agent(w, agent);
    return w.take();
  };
  const auto section = encode();
  const auto at =
      std::search(bytes.begin(), bytes.end(), section.begin(), section.end());
  ASSERT_NE(at, bytes.end());
  const auto scalars = agent.protocol_scalars();
  const auto slots = agent.links().slots();
  const auto hint = agent.links().transition_hint();
  const auto nbrs = agent.neighbors().neighbor_tuples();
  const auto two_hops = agent.neighbors().two_hop_tuples();
  ASSERT_GE(slots.size(), 2u);
  ASSERT_GE(nbrs.size(), 2u);
  ASSERT_GE(two_hops.size(), 2u);
  const auto splice_section = [&](const std::vector<std::uint8_t>& crafted) {
    std::vector<std::uint8_t> out(bytes.begin(), at);
    out.insert(out.end(), crafted.begin(), crafted.end());
    out.insert(out.end(), at + static_cast<std::ptrdiff_t>(section.size()),
               bytes.end());
    return out;
  };
  const auto splice = [&] {
    auto out = splice_section(encode());
    agent.restore_protocol_scalars(scalars);
    agent.restore_links().restore(slots, hint);
    agent.restore_neighbors().restore(nbrs, two_hops);
    return out;
  };
  EXPECT_NO_THROW(TrustExperiment::restore_checkpoint(config, splice()));

  const net::NodeId self = agent.id();
  const auto with_mprs = [&](std::vector<net::NodeId> mprs) {
    auto s = scalars;
    s.mprs = std::move(mprs);
    agent.restore_protocol_scalars(s);
  };
  const auto with_slots = [&](auto bend) {
    auto s = slots;
    bend(s);
    agent.restore_links().restore(s, hint);
  };
  const auto with_tables = [&](auto bend) {
    auto n = nbrs;
    auto t = two_hops;
    bend(n, t);
    agent.restore_neighbors().restore(n, t);
  };
  // Inserts keeping the storage order, so only the self check can fire.
  const auto insert_sorted = [](auto& v, auto item, auto key) {
    v.insert(std::lower_bound(v.begin(), v.end(), key(item),
                              [&](const auto& e, const auto& k) {
                                return key(e) < k;
                              }),
             item);
  };
  const auto nbr_key = [](const olsr::NeighborTuple& t) { return t.id; };
  const auto two_hop_key = [](const olsr::TwoHopTuple& t) {
    return std::pair{t.via, t.two_hop};
  };
  const net::NodeId far{900};  // not in any table
  const std::vector<std::pair<const char*, std::function<void()>>> cases = {
      {"MPR set unsorted",
       [&] { with_mprs({net::NodeId{9}, net::NodeId{3}}); }},
      {"MPR set duplicated",
       [&] { with_mprs({net::NodeId{3}, net::NodeId{3}}); }},
      {"link slots unsorted",
       [&] { with_slots([](auto& s) { std::swap(s[0], s[1]); }); }},
      {"link slot duplicated",
       [&] { with_slots([](auto& s) { s[1] = s[0]; }); }},
      {"neighbor tuples unsorted", [&] {
         with_tables([](auto& n, auto&) { std::swap(n[0], n[1]); });
       }},
      {"neighbor tuple duplicated",
       [&] { with_tables([](auto& n, auto&) { n[1] = n[0]; }); }},
      {"2-hop tuples unsorted", [&] {
         with_tables([](auto&, auto& t) { std::swap(t[0], t[1]); });
       }},
      {"2-hop tuple duplicated",
       [&] { with_tables([](auto&, auto& t) { t[1] = t[0]; }); }},
      {"neighbor tuple naming self", [&] {
         with_tables([&](auto& n, auto&) {
           insert_sorted(n, olsr::NeighborTuple{self}, nbr_key);
         });
       }},
      {"2-hop tuple reaching self", [&] {
         with_tables([&](auto&, auto& t) {
           insert_sorted(t, olsr::TwoHopTuple{t[0].via, self, t[0].valid_until},
                         two_hop_key);
         });
       }},
      {"2-hop tuple via self", [&] {
         with_tables([&](auto&, auto& t) {
           insert_sorted(t, olsr::TwoHopTuple{self, far, t[0].valid_until},
                         two_hop_key);
         });
       }},
  };
  for (const auto& [what, bend] : cases) {
    bend();
    EXPECT_THROW(TrustExperiment::restore_checkpoint(config, splice()),
                 CheckpointError)
        << what;
  }

  // The remaining sections are bent in agent 0's image: their tables
  // export in storage order whatever order a restore handed them.
  const auto image = faults::agent_image(agent);
  ASSERT_GE(image.topology.size(), 2u);
  ASSERT_GE(image.latest_ansn.size(), 2u);
  ASSERT_GE(image.duplicates.size(), 2u);
  ASSERT_GE(image.duplicate_ring.size(), 2u);
  ASSERT_LT(image.duplicate_ring.front().expiry,
            image.duplicate_ring.back().expiry);
  ASSERT_NE(std::ranges::adjacent_find(image.two_hops, {},
                                       &olsr::TwoHopTuple::via),
            image.two_hops.end());
  const auto splice_image = [&](const faults::AgentSnapshot& a) {
    CheckpointWriter w;
    faults::transfer_agent(w, a);
    return splice_section(w.take());
  };
  EXPECT_NO_THROW(
      TrustExperiment::restore_checkpoint(config, splice_image(image)));
  const auto swap_ends = [](auto& v) { std::swap(v.front(), v.back()); };
  const auto repeat_first = [](auto& v) { v[1] = v[0]; };
  const sim::Time until = exp.network().now() + sim::Duration::from_seconds(5);
  const net::NodeId far2{901};
  using Image = faults::AgentSnapshot;
  using Hna = olsr::HnaSet::Key;
  const std::vector<std::pair<const char*, std::function<void(Image&)>>>
      image_cases = {
          {"topology tuples unsorted",
           [&](Image& a) { swap_ends(a.topology); }},
          {"topology tuple duplicated",
           [&](Image& a) { repeat_first(a.topology); }},
          {"latest-ANSN rows unsorted",
           [&](Image& a) { swap_ends(a.latest_ansn); }},
          {"latest-ANSN row duplicated",
           [&](Image& a) { repeat_first(a.latest_ansn); }},
          {"duplicate entries unsorted",
           [&](Image& a) { swap_ends(a.duplicates); }},
          {"duplicate entry duplicated",
           [&](Image& a) { repeat_first(a.duplicates); }},
          {"duplicate ring going backwards",
           [&](Image& a) { swap_ends(a.duplicate_ring); }},
          {"MID tuples unsorted",
           [&](Image& a) { a.mid = {{far2, far, until}, {far, far, until}}; }},
          {"MID tuple duplicated",
           [&](Image& a) { a.mid = {{far, far, until}, {far, far, until}}; }},
          {"HNA tuples unsorted", [&](Image& a) {
             a.hna = {{Hna{far, 2, 24}, until}, {Hna{far, 1, 24}, until}};
           }},
          {"HNA tuple duplicated", [&](Image& a) {
             a.hna = {{Hna{far, 1, 24}, until}, {Hna{far, 1, 24}, until}};
           }},
          {"MPR selectors unsorted", [&](Image& a) {
             a.scalars.mpr_selectors = {{far2, until}, {far, until}};
           }},
          {"MPR selector duplicated", [&](Image& a) {
             a.scalars.mpr_selectors = {{far, until}, {far, until}};
           }},
          {"2-hop tuples of one via disagreeing on N_time", [&](Image& a) {
             const auto i = std::ranges::adjacent_find(
                 a.two_hops, {}, &olsr::TwoHopTuple::via);
             i[1].valid_until = i[1].valid_until + sim::Duration::from_ms(1);
           }},
      };
  for (const auto& [what, bend] : image_cases) {
    auto bent = image;
    bend(bent);
    EXPECT_THROW(
        TrustExperiment::restore_checkpoint(config, splice_image(bent)),
        CheckpointError)
        << what;
  }
  // The same rows in storage order restore.
  auto ordered = image;
  ordered.scalars.mpr_selectors = {{far, until}, {far2, until}};
  ordered.mid = {{far, far, until}, {far2, far, until}};
  ordered.hna = {{Hna{far, 1, 24}, until}, {Hna{far, 2, 24}, until}};
  EXPECT_NO_THROW(
      TrustExperiment::restore_checkpoint(config, splice_image(ordered)));
}

TEST(Checkpoint, RestoreRejectsUnorderedFaultInjectorNodes) {
  // The injector finds a down node by binary search, so its section lists
  // the down nodes strictly ascending. That list and the fixed fields
  // after it end the checkpoint; each case re-encodes them from the live
  // injector with the list bent.
  const auto config = checkpoint_config(true);
  TrustExperiment exp{config};
  exp.setup();
  const auto& injector = *exp.injector();
  for (int r = 0; r < 8 && injector.down_count() == 0; ++r)
    exp.run_round();
  ASSERT_EQ(injector.down_count(), 1u);
  const auto bytes = exp.save_checkpoint();
  using Down = std::vector<std::pair<net::NodeId, sim::Time>>;
  const auto tail = [&injector](const Down& down) {
    CheckpointWriter w;
    w.list(down, [&w](const auto& d) {
      w.node(d.first);
      w.time(d.second);
    });
    w.time(injector.last_disruption());
    w.time(injector.last_heal());
    w.boolean(injector.armed());
    w.time(injector.pending_at());
    w.u64(injector.pending_seq());
    return w.take();
  };
  const auto saved = tail(injector.down_nodes());
  ASSERT_GE(bytes.size(), saved.size());
  const auto head = bytes.end() - static_cast<std::ptrdiff_t>(saved.size());
  ASSERT_TRUE(std::equal(saved.begin(), saved.end(), head));
  const auto with_down = [&](const Down& down) {
    std::vector<std::uint8_t> out(bytes.begin(), head);
    const auto crafted = tail(down);
    out.insert(out.end(), crafted.begin(), crafted.end());
    return out;
  };
  const auto [n6, since] = injector.down_nodes().front();
  const net::NodeId n3{3};
  EXPECT_NO_THROW(TrustExperiment::restore_checkpoint(
      config, with_down({{n3, since}, {n6, since}})));
  for (const auto& bad : {Down{{n6, since}, {n3, since}},
                          Down{{n6, since}, {n6, since}}})
    EXPECT_THROW(TrustExperiment::restore_checkpoint(config, with_down(bad)),
                 CheckpointError);
}

TEST(Checkpoint, RestoreRejectsInconsistentLogSection) {
  const auto config = checkpoint_config(false);
  TrustExperiment exp{config};
  exp.setup();
  exp.run_round();
  const auto bytes = exp.save_checkpoint();

  const auto& log = exp.network().agent(0).log();
  ASSERT_GE(log.records().size(), 2u);
  const auto encode = [](const std::vector<logging::LogRecord>& records,
                         std::uint64_t total, std::uint64_t dropped) {
    logging::LogStore crafted;
    crafted.restore(records, total, dropped);
    CheckpointWriter w;
    faults::encode_log(w, crafted);
    return w.take();
  };
  const auto total = log.total_appended();
  const auto dropped = log.dropped();
  std::vector<logging::LogRecord> records;
  for (const auto& r : log.records()) records.emplace_back(r);
  const auto section = encode(records, total, dropped);
  const auto at =
      std::search(bytes.begin(), bytes.end(), section.begin(), section.end());
  ASSERT_NE(at, bytes.end());
  const auto splice = [&](const std::vector<std::uint8_t>& crafted) {
    std::vector<std::uint8_t> out(bytes.begin(), at);
    out.insert(out.end(), crafted.begin(), crafted.end());
    out.insert(out.end(), at + static_cast<std::ptrdiff_t>(section.size()),
               bytes.end());
    return out;
  };
  EXPECT_NO_THROW(TrustExperiment::restore_checkpoint(config, splice(section)));

  auto backwards = records;  // the newest record predates the one before
  backwards.back().time = backwards.front().time;
  ASSERT_LT(backwards.back().time, records[records.size() - 2].time);
  for (const auto& bad :
       {encode(backwards, total, dropped),
        encode(records, total + 1, dropped),  // an unaccounted record
        encode(records, total, dropped + 1),  // base_index() wraps
        encode(records, total - 1, dropped)})
    EXPECT_THROW(TrustExperiment::restore_checkpoint(config, splice(bad)),
                 CheckpointError);
}

TEST(Checkpoint, RestoreRejectsUnreadableLogRecords) {
  // The log section is read typed: a record the detector could not read
  // later is refused at restore, not met mid-run.
  const auto config = checkpoint_config(false);
  TrustExperiment exp{config};
  exp.setup();
  exp.run_round();
  const auto bytes = exp.save_checkpoint();

  const auto& log = exp.network().agent(0).log();
  const auto& records = log.records();
  ASSERT_GE(records.size(), 2u);
  CheckpointWriter whole;
  faults::encode_log(whole, log);
  const auto section = whole.take();
  const auto at =
      std::search(bytes.begin(), bytes.end(), section.begin(), section.end());
  ASSERT_NE(at, bytes.end());
  // The section again, its newest record written by `last` instead.
  const auto splice = [&](const auto& last) {
    CheckpointWriter w;
    w.count(records.size());
    for (std::size_t i = 0; i + 1 < records.size(); ++i)
      logging::transfer_record(w, records[i]);
    w.time(records.back().time);
    w.node(records.back().node);
    last(w);
    w.u64(log.total_appended());
    w.u64(log.dropped());
    std::vector<std::uint8_t> out(bytes.begin(), at);
    const auto& crafted = w.buffer();
    out.insert(out.end(), crafted.begin(), crafted.end());
    out.insert(out.end(), at + static_cast<std::ptrdiff_t>(section.size()),
               bytes.end());
    return out;
  };

  // The splice itself is sound: the newest record written as it was.
  EXPECT_NO_THROW(TrustExperiment::restore_checkpoint(
      config, splice([&](CheckpointWriter& w) {
        const auto whole_record = [&] {
          CheckpointWriter one;
          logging::transfer_record(one, records.back());
          return one.take();
        }();
        w.raw(whole_record.data() + 12, whole_record.size() - 12);
      })));
  // An event code past the schema table.
  EXPECT_THROW(TrustExperiment::restore_checkpoint(
                   config, splice([](CheckpointWriter& w) {
                     w.u8(logging::kEventCount);
                   })),
               CheckpointError);
  // A hello_recv whose values stop before its sym list.
  EXPECT_THROW(TrustExperiment::restore_checkpoint(
                   config, splice([](CheckpointWriter& w) {
                     w.u8(logging::Event::kHelloRecv);
                     w.node(net::NodeId{3});
                     w.i64(7);
                   })),
               CheckpointError);
}

}  // namespace
}  // namespace manet
