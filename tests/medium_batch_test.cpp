// Per-cell receiver snapshots shared by every Medium::broadcast: how often
// they are built and reused, when they are invalidated, and that the
// in-flight tracking used by checkpoints (which schedules each delivery
// individually instead of through one coalesced window) leaves a full OLSR
// flood trace unchanged. Trace equivalence against the per-sender
// full-scan reference lives in tests/medium_index_test.cpp.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "net/medium.hpp"
#include "net/topology.hpp"
#include "scenario/network.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace manet;
using net::Bytes;
using net::NodeId;
using net::Position;

// A static round shares one snapshot per occupied cell: S senders over C
// occupied cells must cost exactly C builds and S - C hits, and a second
// round must be all hits.
TEST(MediumBatch, StaticRoundSharesSnapshotsPerCell) {
  sim::Simulator sim{5};
  net::RadioConfig config;
  config.range_m = 250.0;
  net::Medium m{sim, config};

  // Two clusters well inside one cell each (cell size = 250 m).
  for (std::uint32_t i = 0; i < 8; ++i) {
    const double x = (i < 4) ? 40.0 + 10.0 * i : 1540.0 + 10.0 * (i - 4);
    m.attach(NodeId{i}, Position{x, 40.0}, {});
  }

  for (std::uint32_t i = 0; i < 8; ++i) m.broadcast(NodeId{i}, Bytes{0x01});
  sim.run_all();
  EXPECT_EQ(m.stats().frames_sent, 8u);
  EXPECT_EQ(m.batch_stats().snapshot_builds, 2u);  // one per occupied cell
  EXPECT_EQ(m.batch_stats().snapshot_hits, 6u);

  // No topology mutation in between: the next round reuses both snapshots.
  for (std::uint32_t i = 0; i < 8; ++i) m.broadcast(NodeId{i}, Bytes{0x02});
  sim.run_all();
  EXPECT_EQ(m.batch_stats().snapshot_builds, 2u);
  EXPECT_EQ(m.batch_stats().snapshot_hits, 14u);

  // A single position change stales every snapshot.
  m.set_position(NodeId{0}, Position{45.0, 40.0});
  for (std::uint32_t i = 0; i < 8; ++i) m.broadcast(NodeId{i}, Bytes{0x03});
  sim.run_all();
  EXPECT_EQ(m.batch_stats().snapshot_builds, 4u);
}

// Checkpointable runs track every in-flight frame, so their broadcasts
// schedule each delivery on its own instead of through the coalesced
// insertion window. A full OLSR network over a multi-hop grid — MPR
// selection, TC emission, duplicate-window forwarding storms — must produce
// byte-identical audit logs on every node either way: timestamps, sequence
// numbers, receiver sets and forwarding decisions all pinned at once.
void run_flood_equivalence(std::uint64_t seed) {
  auto build = [&](bool tracked) {
    scenario::Network::Config nc;
    nc.seed = seed + 11;
    nc.radio.range_m = 250.0;
    // A 150 m grid spacing makes the 24-node network genuinely multi-hop,
    // so TCs are emitted and forwarded (a full mesh has no MPRs at all).
    nc.positions = net::grid_layout(24, 150.0);
    auto net = std::make_unique<scenario::Network>(std::move(nc));
    if (tracked) net->medium().set_track_in_flight(true);
    return net;
  };

  auto untracked = build(false);
  auto tracked = build(true);
  untracked->start_all();
  tracked->start_all();
  untracked->run_for(sim::Duration::from_seconds(20.0));
  tracked->run_for(sim::Duration::from_seconds(20.0));

  for (std::size_t i = 0; i < untracked->size(); ++i) {
    ASSERT_TRUE(untracked->agent(i).log().records() ==
                tracked->agent(i).log().records())
        << "seed " << seed << " node " << i;
    const auto& a = untracked->agent(i).stats();
    const auto& b = tracked->agent(i).stats();
    EXPECT_EQ(a.tc_sent, b.tc_sent) << "seed " << seed << " node " << i;
    EXPECT_EQ(a.tc_recv, b.tc_recv) << "seed " << seed << " node " << i;
    EXPECT_EQ(a.msgs_forwarded, b.msgs_forwarded)
        << "seed " << seed << " node " << i;
  }
  EXPECT_EQ(untracked->medium().stats().deliveries,
            tracked->medium().stats().deliveries);
  EXPECT_EQ(untracked->medium().stats().frames_sent,
            tracked->medium().stats().frames_sent);
  EXPECT_GT(tracked->medium().batch_stats().snapshot_hits, 0u);
}

class FloodTrackingEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FloodTrackingEquivalence, TcAndForwardsMatchUntrackedRun) {
  run_flood_equivalence(GetParam());
}

INSTANTIATE_TEST_SUITE_P(TenSeeds, FloodTrackingEquivalence,
                         ::testing::Range<std::uint64_t>(0, 10));

// Radio state is baked into the snapshot, so set_up must invalidate it:
// a down receiver stops hearing broadcasts immediately.
TEST(MediumBatch, SetUpInvalidatesSnapshots) {
  sim::Simulator sim{7};
  net::RadioConfig config;
  config.range_m = 100.0;
  config.delay_jitter = sim::Duration{};
  net::Medium m{sim, config};

  int received = 0;
  m.attach(NodeId{0}, Position{0.0, 0.0}, {});
  m.attach(NodeId{1}, Position{50.0, 0.0},
           [&received](const net::Packet&) { ++received; });

  m.broadcast(NodeId{0}, Bytes{1});
  sim.run_all();
  EXPECT_EQ(received, 1);

  m.set_up(NodeId{1}, false);
  m.broadcast(NodeId{0}, Bytes{2});
  sim.run_all();
  EXPECT_EQ(received, 1);

  m.set_up(NodeId{1}, true);
  m.broadcast(NodeId{0}, Bytes{3});
  sim.run_all();
  EXPECT_EQ(received, 2);
}

}  // namespace
