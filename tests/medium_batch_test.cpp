// Per-cell receiver snapshots shared by every Medium::broadcast: how often
// they are built and reused and when they are invalidated; and the flight
// slots every delivery waits in, whose listing mid-flood must match what
// lands. Trace equivalence against the per-sender full-scan reference
// lives in tests/medium_index_test.cpp.

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

// Every delivery waits in a slot the medium owns until it lands, and
// in_flight() lists the live slots. Over a full OLSR network on a
// multi-hop grid (MPR selection, TC emission, duplicate-window forwarding
// storms), the frames listed at an instant mid-flood must be exactly the
// frames sent by then that land afterwards: each at the receiver and time
// it records, with its transmitter, link destination, send time and bytes,
// in the listed (arrival, seq) order.
void check_listed_frames_land(std::uint64_t seed) {
  scenario::Network::Config nc;
  nc.seed = seed + 11;
  nc.radio.range_m = 250.0;
  // A 150 m grid spacing makes the 24-node network genuinely multi-hop,
  // so TCs are emitted and forwarded (a full mesh has no MPRs at all).
  nc.positions = net::grid_layout(24, 150.0);
  scenario::Network net{std::move(nc)};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(12.0 + 0.7 * static_cast<double>(seed)));
  // Cut where the deliveries of several transmissions overlap.
  for (int i = 0; i < 200'000 && net.medium().in_flight().size() < 12; ++i)
    ASSERT_TRUE(net.sim().step());
  const sim::Time cut = net.now();
  const auto listed = net.medium().in_flight();
  ASSERT_GE(listed.size(), 12u) << "seed " << seed;

  // From the cut on, record every landing instead of handing it to the
  // agents; the frames sent by then must be the listed ones.
  std::vector<net::InFlightFrame> landed;
  for (std::size_t i = 0; i < net.size(); ++i) {
    const NodeId id = scenario::Network::id_of(i);
    net.medium().set_handler(id, [&, id](const net::Packet& p) {
      if (p.sent_at > cut) return;
      landed.push_back({id, p.transmitter, p.link_dest, p.payload(),
                        p.sent_at, net.now(), 0});
    });
  }
  net.run_for(sim::Duration::from_ms(10));  // every delay is below 1 ms

  ASSERT_EQ(landed.size(), listed.size()) << "seed " << seed;
  for (std::size_t k = 0; k < listed.size(); ++k) {
    const auto& want = listed[k];
    const auto& got = landed[k];
    EXPECT_EQ(got.receiver, want.receiver) << "seed " << seed << " #" << k;
    EXPECT_EQ(got.transmitter, want.transmitter) << "seed " << seed;
    EXPECT_EQ(got.link_dest, want.link_dest) << "seed " << seed;
    EXPECT_EQ(got.sent_at, want.sent_at) << "seed " << seed;
    EXPECT_EQ(got.arrival, want.arrival) << "seed " << seed << " #" << k;
    EXPECT_EQ(got.payload, want.payload) << "seed " << seed;
    if (k > 0 && want.arrival == listed[k - 1].arrival) {
      EXPECT_LT(listed[k - 1].seq, want.seq) << "seed " << seed;
    }
  }
  for (const auto& f : net.medium().in_flight())
    EXPECT_GT(f.sent_at, cut) << "seed " << seed;
}

class FloodInFlight : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FloodInFlight, ListedFramesLandAsRecorded) {
  check_listed_frames_land(GetParam());
}

INSTANTIATE_TEST_SUITE_P(TenSeeds, FloodInFlight,
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
