// Radio-fault semantics of the Medium: the drop-on-arrival rule for down
// hosts (up/down is evaluated when a frame lands, never retroactively
// against frames already in flight), brown-out loss overrides (max over
// config, sender and receiver), netsplit partitions (decided at transmit
// time, before any RNG draw), both applied through per-cell receiver
// snapshots built before the fault was set, and the in-flight frames the
// checkpoint machinery reads. Pins the contract documented in
// ARCHITECTURE.md, "Fault model & checkpoint format".

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <vector>

#include "net/medium.hpp"
#include "sim/simulator.hpp"

namespace manet::net {
namespace {

class MediumFaultsTest : public ::testing::Test {
 protected:
  MediumFaultsTest() : sim_{7}, medium_{sim_, radio()} {
    for (std::uint32_t i = 0; i < 3; ++i) {
      const NodeId id{i};
      medium_.attach(id, Position{static_cast<double>(i) * 50.0, 0.0},
                     [this, id](const Packet& p) {
                       received_[id].push_back(p.transmitter);
                     });
    }
  }

  static RadioConfig radio() {
    RadioConfig rc;
    rc.range_m = 250.0;
    rc.loss_probability = 0.0;  // deterministic deliveries by default
    return rc;
  }

  void run_ms(std::int64_t ms) {
    sim_.run_until(sim_.now() + sim::Duration::from_ms(ms));
  }

  std::size_t deliveries_to(NodeId id) const {
    const auto it = received_.find(id);
    return it == received_.end() ? 0 : it->second.size();
  }

  sim::Simulator sim_;
  Medium medium_;
  std::map<NodeId, std::vector<NodeId>> received_;
};

// --- drop-on-arrival -----------------------------------------------------

TEST_F(MediumFaultsTest, DownHostNeitherSendsNorReceives) {
  medium_.set_up(NodeId{1}, false);
  EXPECT_FALSE(medium_.is_up(NodeId{1}));

  medium_.broadcast(NodeId{0}, Bytes{1, 2, 3});
  medium_.broadcast(NodeId{1}, Bytes{4, 5});  // down sender: swallowed
  run_ms(10);

  EXPECT_EQ(deliveries_to(NodeId{1}), 0u);
  EXPECT_EQ(deliveries_to(NodeId{2}), 1u);  // only node 0's frame
  EXPECT_EQ(deliveries_to(NodeId{0}), 0u);
}

TEST_F(MediumFaultsTest, InFlightFrameTowardHostThatWentDownIsDropped) {
  // The frame is transmitted (loss/jitter draws consumed) while node 1 is
  // up; node 1 goes down before the ~1 ms arrival. Drop-on-arrival: the
  // frame is discarded and counted, not delivered retroactively.
  medium_.broadcast(NodeId{0}, Bytes{9});
  medium_.set_up(NodeId{1}, false);
  run_ms(10);

  EXPECT_EQ(deliveries_to(NodeId{1}), 0u);
  EXPECT_EQ(deliveries_to(NodeId{2}), 1u);
  EXPECT_EQ(medium_.stats().dropped_down, 1u);
}

TEST_F(MediumFaultsTest, InFlightFrameDeliveredWhenHostIsBackUpBeforeArrival) {
  // Down-up flap entirely within the frame's flight time: the host is up
  // when the frame lands, so it is delivered normally.
  medium_.broadcast(NodeId{0}, Bytes{9});
  medium_.set_up(NodeId{1}, false);
  medium_.set_up(NodeId{1}, true);
  run_ms(10);

  EXPECT_EQ(deliveries_to(NodeId{1}), 1u);
  EXPECT_EQ(medium_.stats().dropped_down, 0u);
}

// --- brown-out loss overrides --------------------------------------------

TEST_F(MediumFaultsTest, ReceiverLossOverrideAppliesOnlyToThatHost) {
  medium_.set_loss_override(NodeId{1}, 1.0);  // total brown-out at node 1
  EXPECT_DOUBLE_EQ(medium_.loss_override(NodeId{1}), 1.0);

  medium_.broadcast(NodeId{0}, Bytes{1});
  run_ms(10);
  EXPECT_EQ(deliveries_to(NodeId{1}), 0u);
  EXPECT_EQ(deliveries_to(NodeId{2}), 1u);
  EXPECT_EQ(medium_.stats().losses, 1u);
}

TEST_F(MediumFaultsTest, SenderLossOverrideAppliesToAllItsFrames) {
  medium_.set_loss_override(NodeId{0}, 1.0);
  medium_.broadcast(NodeId{0}, Bytes{1});
  medium_.broadcast(NodeId{2}, Bytes{2});
  run_ms(10);

  // Node 0's frame is lost toward both receivers. The override is
  // per-host, not per-direction: node 2's frame also dies on the leg
  // toward node 0 (three losses total) but reaches node 1 untouched.
  EXPECT_EQ(deliveries_to(NodeId{1}), 1u);
  EXPECT_EQ(received_[NodeId{1}].front(), NodeId{2});
  EXPECT_EQ(deliveries_to(NodeId{0}), 0u);
  EXPECT_EQ(medium_.stats().losses, 3u);
}

TEST_F(MediumFaultsTest, EffectiveLossIsTheMaxNotTheOverrideAlone) {
  // A negative-from-zero override must not *lower* the configured loss:
  // with config loss 1.0, an override of 0.0 still loses every frame.
  sim::Simulator sim{7};
  auto rc = radio();
  rc.loss_probability = 1.0;
  Medium lossy{sim, rc};
  std::size_t delivered = 0;
  lossy.attach(NodeId{0}, {0.0, 0.0});
  lossy.attach(NodeId{1}, {50.0, 0.0}, [&](const Packet&) { ++delivered; });
  lossy.set_loss_override(NodeId{1}, 0.0);

  lossy.broadcast(NodeId{0}, Bytes{1});
  sim.run_until(sim.now() + sim::Duration::from_ms(10));
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(lossy.stats().losses, 1u);
}

TEST_F(MediumFaultsTest, NegativeOverrideClearsTheBrownout) {
  medium_.set_loss_override(NodeId{1}, 1.0);
  medium_.set_loss_override(NodeId{1}, -1.0);
  EXPECT_LT(medium_.loss_override(NodeId{1}), 0.0);

  medium_.broadcast(NodeId{0}, Bytes{1});
  run_ms(10);
  EXPECT_EQ(deliveries_to(NodeId{1}), 1u);
}

// --- netsplit partitions -------------------------------------------------

TEST_F(MediumFaultsTest, FramesDoNotCrossPartitions) {
  medium_.set_partition(NodeId{2}, 1);
  EXPECT_EQ(medium_.partition(NodeId{2}), 1u);
  EXPECT_EQ(medium_.partition(NodeId{0}), 0u);

  medium_.broadcast(NodeId{0}, Bytes{1});
  run_ms(10);
  EXPECT_EQ(deliveries_to(NodeId{1}), 1u);
  EXPECT_EQ(deliveries_to(NodeId{2}), 0u);
  // Decided before any draw: a partitioned receiver is skipped like an
  // out-of-range one, so it shows up in no loss counter either.
  EXPECT_EQ(medium_.stats().losses, 0u);
}

TEST_F(MediumFaultsTest, PartitionSkipConsumesNoRngDraws) {
  // Two runs with the same seed: one where node 1 is partitioned away,
  // one where it does not exist at all. Receivers draw in ascending
  // NodeId order, so if the partition skip consumed loss/jitter draws for
  // node 1, node 2's jittered arrival would differ between the runs.
  auto arrival_with = [](bool partitioned) {
    sim::Simulator sim{11};
    auto rc = radio();
    rc.loss_probability = 0.2;  // force a loss draw per candidate receiver
    Medium m{sim, rc};
    sim::Time arrival{};
    m.attach(NodeId{0}, {0.0, 0.0});
    if (partitioned) {
      m.attach(NodeId{1}, {25.0, 0.0});
      m.set_partition(NodeId{1}, 7);
    }
    m.attach(NodeId{2}, {50.0, 0.0},
             [&](const Packet&) { arrival = sim.now(); });
    m.broadcast(NodeId{0}, Bytes{1});
    sim.run_until(sim.now() + sim::Duration::from_ms(10));
    return arrival;
  };
  EXPECT_EQ(arrival_with(true).us(), arrival_with(false).us());
}

TEST_F(MediumFaultsTest, HealRestoresCrossPartitionTraffic) {
  medium_.set_partition(NodeId{2}, 1);
  medium_.broadcast(NodeId{0}, Bytes{1});
  run_ms(10);
  ASSERT_EQ(deliveries_to(NodeId{2}), 0u);

  medium_.set_partition(NodeId{2}, 0);
  medium_.broadcast(NodeId{0}, Bytes{2});
  run_ms(10);
  EXPECT_EQ(deliveries_to(NodeId{2}), 1u);
}

// --- fault state on a live snapshot --------------------------------------

// Partitions and brown-outs bump no topology generation, so they must take
// effect through a per-cell snapshot built before they were set: every
// broadcast reads them from the live host entries, never from the snapshot.
TEST_F(MediumFaultsTest, FaultsApplyThroughALiveSnapshot) {
  sim::Simulator sim{13};
  // Replays exactly the draws the medium should make, receiver by receiver.
  sim::Simulator twin{13};
  const auto rc = radio();
  auto twin_delivery = [&](double loss) {
    if (twin.rng().bernoulli(loss)) return;
    twin.rng().uniform_int(0, rc.delay_jitter.us());
  };

  Medium m{sim, rc};
  std::map<NodeId, int> got;
  for (std::uint32_t i = 0; i < 4; ++i) {  // all four share one 250 m cell
    const NodeId id{i};
    m.attach(id, Position{static_cast<double>(i) * 40.0, 0.0},
             [&got, id](const Packet&) { ++got[id]; });
  }

  // 1. Build the snapshot.
  m.broadcast(NodeId{0}, Bytes{1});
  for (int rx = 1; rx < 4; ++rx) twin_delivery(rc.loss_probability);
  sim.run_until(sim.now() + sim::Duration::from_ms(10));
  ASSERT_EQ(m.batch_stats().snapshot_builds, 1u);
  ASSERT_EQ(m.batch_stats().snapshot_hits, 0u);

  // 2. Partition node 1 off and brown node 2 out completely.
  m.set_partition(NodeId{1}, 7);
  m.set_loss_override(NodeId{2}, 1.0);

  // 3. Broadcast again from the same cell: node 1 is skipped before any
  // draw, node 2 draws at the brown-out rate, node 3 is untouched.
  m.broadcast(NodeId{0}, Bytes{2});
  twin_delivery(1.0);
  twin_delivery(rc.loss_probability);
  sim.run_until(sim.now() + sim::Duration::from_ms(10));

  EXPECT_EQ(m.batch_stats().snapshot_builds, 1u);
  EXPECT_EQ(m.batch_stats().snapshot_hits, 1u);
  EXPECT_EQ(got[NodeId{1}], 1);  // the first broadcast only
  EXPECT_EQ(got[NodeId{2}], 1);
  EXPECT_EQ(got[NodeId{3}], 2);
  EXPECT_EQ(m.stats().losses, 1u);
  // Same stream position as the replay: the partitioned receiver drew
  // nothing.
  EXPECT_EQ(sim.rng().next_u64(), twin.rng().next_u64());
}

// --- in-flight frames (checkpoint support) -------------------------------

TEST_F(MediumFaultsTest, InFlightRegistryTracksAirborneFramesOnly) {
  medium_.broadcast(NodeId{0}, Bytes{1, 2});
  const auto airborne = medium_.in_flight();
  ASSERT_EQ(airborne.size(), 2u);  // receivers 1 and 2
  // Ascending (arrival, seq) order.
  EXPECT_LE(airborne[0].arrival.us(), airborne[1].arrival.us());
  for (const auto& f : airborne) {
    EXPECT_EQ(f.transmitter, NodeId{0});
    EXPECT_EQ(f.payload, (Bytes{1, 2}));
    EXPECT_GT(f.arrival.us(), sim_.now().us());
  }

  run_ms(10);
  EXPECT_TRUE(medium_.in_flight().empty());
  EXPECT_EQ(deliveries_to(NodeId{1}), 1u);
  EXPECT_EQ(deliveries_to(NodeId{2}), 1u);
}

TEST_F(MediumFaultsTest, RestoredFlightDeliversAtItsRecordedArrival) {
  medium_.broadcast(NodeId{0}, Bytes{5});
  auto flights = medium_.in_flight();
  ASSERT_FALSE(flights.empty());

  // Mirror the checkpoint restore: a fresh medium over the same hosts,
  // re-arming the saved frames instead of re-broadcasting.
  sim::Simulator sim{7};
  Medium fresh{sim, radio()};
  std::map<NodeId, sim::Time> arrivals;
  for (std::uint32_t i = 0; i < 3; ++i) {
    const NodeId id{i};
    fresh.attach(id, Position{static_cast<double>(i) * 50.0, 0.0},
                 [&arrivals, &sim, id](const Packet&) {
                   arrivals[id] = sim.now();
                 });
  }
  for (const auto& f : flights) fresh.restore_in_flight(f);
  sim.run_until(sim.now() + sim::Duration::from_ms(10));

  for (const auto& f : flights) {
    ASSERT_TRUE(arrivals.count(f.receiver)) << f.receiver.to_string();
    EXPECT_EQ(arrivals[f.receiver].us(), f.arrival.us());
  }
}

// Under the collision model a delivery keeps its closure (its collision
// entry can outlive a landing dropped at a down host), so the medium
// cannot list what is on the air and refuses rather than answer empty.
TEST(MediumInFlight, CollisionModelRefusesToListOrRestore) {
  sim::Simulator sim{7};
  RadioConfig rc;
  rc.collision_window = sim::Duration::from_us(100);
  Medium m{sim, rc};
  m.attach(NodeId{0}, Position{0.0, 0.0});
  m.attach(NodeId{1}, Position{50.0, 0.0});
  m.broadcast(NodeId{0}, Bytes{1});
  EXPECT_THROW(m.in_flight(), std::logic_error);
  InFlightFrame f;
  f.receiver = NodeId{1};
  f.transmitter = NodeId{0};
  f.arrival = sim.now() + sim::Duration::from_ms(1);
  EXPECT_THROW(m.restore_in_flight(f), std::logic_error);
  sim.run_all();
  EXPECT_EQ(m.stats().deliveries, 1u);
}

}  // namespace
}  // namespace manet::net
