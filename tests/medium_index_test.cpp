// Randomized equivalence of Medium against a spec-style brute-force
// reference (std::map storage, O(N) full scan per sender, per-receiver
// payload copy). For 50 seeds x random layouts the two must produce
// identical neighbors_in_range sets and an identical delivery/loss/collision
// trace — same receivers, same arrival times, same bytes — including under
// HELLO-round broadcast bursts (which share the per-cell receiver
// snapshots), mobility (set_position), radio down/up toggles, detach +
// re-attach churn, loss, jitter and collisions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "net/medium.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace manet;
using net::Bytes;
using net::NodeId;
using net::Position;

/// One observed delivery, comparable across implementations.
struct Delivery {
  std::int64_t at_us;
  std::uint32_t receiver;
  std::uint32_t transmitter;
  Bytes payload;

  friend bool operator==(const Delivery&, const Delivery&) = default;
};

/// The seed Medium, kept as the brute-force reference: every broadcast
/// scans all hosts in ascending NodeId order (std::map) and deep-copies the
/// payload per receiver. Draws from the same Simulator Rng in the same
/// order as the indexed, snapshot-sharing implementation must.
class BruteForceMedium {
 public:
  using ReceiveHandler = std::function<void(NodeId transmitter, const Bytes&)>;

  BruteForceMedium(sim::Simulator& sim, net::RadioConfig config)
      : sim_{sim}, config_{config} {}

  void attach(NodeId id, Position pos, ReceiveHandler handler) {
    hosts_.emplace(id, Host{pos, std::move(handler), true, {}});
  }

  void detach(NodeId id) { hosts_.erase(id); }
  void set_position(NodeId id, Position pos) { hosts_.at(id).pos = pos; }
  void set_up(NodeId id, bool up) { hosts_.at(id).up = up; }

  void broadcast(NodeId sender, Bytes payload) {
    const Host& tx = hosts_.at(sender);
    if (!tx.up) return;
    ++stats_.frames_sent;
    stats_.bytes_sent += payload.size();
    for (const auto& [id, rx] : hosts_) {
      if (id == sender || !rx.up) continue;
      if (net::distance(tx.pos, rx.pos) > config_.range_m) continue;
      deliver_to(sender, id, payload);
    }
  }

  std::vector<NodeId> neighbors_in_range(NodeId id) const {
    const Host& me = hosts_.at(id);
    std::vector<NodeId> out;
    for (const auto& [other, h] : hosts_) {
      if (other == id || !h.up) continue;
      if (net::distance(me.pos, h.pos) <= config_.range_m) out.push_back(other);
    }
    return out;
  }

  const net::MediumStats& stats() const { return stats_; }

 private:
  struct Host {
    Position pos;
    ReceiveHandler handler;
    bool up = true;
    std::vector<std::pair<sim::Time, std::shared_ptr<bool>>> arrivals;
  };

  void deliver_to(NodeId sender, NodeId receiver, const Bytes& payload) {
    if (sim_.rng().bernoulli(config_.loss_probability)) {
      ++stats_.losses;
      return;
    }
    sim::Duration delay = config_.base_delay;
    if (config_.delay_jitter > sim::Duration{}) {
      delay += sim::Duration::from_us(
          sim_.rng().uniform_int(0, config_.delay_jitter.us()));
    }
    const sim::Time arrival = sim_.now() + delay;

    Host& rx = hosts_.at(receiver);
    auto corrupted = std::make_shared<bool>(false);
    if (config_.collision_window > sim::Duration{}) {
      std::erase_if(rx.arrivals, [&](const auto& a) {
        return a.first + config_.collision_window < sim_.now();
      });
      for (auto& [at, flag] : rx.arrivals) {
        const auto gap = arrival >= at ? arrival - at : at - arrival;
        if (gap < config_.collision_window) {
          *flag = true;
          *corrupted = true;
        }
      }
      rx.arrivals.emplace_back(arrival, corrupted);
    }

    Bytes copy = payload;  // the seed's per-receiver deep copy
    sim_.schedule_at(arrival, [this, sender, receiver, corrupted,
                               copy = std::move(copy), arrival] {
      auto it = hosts_.find(receiver);
      if (it == hosts_.end() || !it->second.up) return;
      std::erase_if(it->second.arrivals,
                    [&](const auto& a) { return a.first <= arrival; });
      if (*corrupted) {
        ++stats_.collisions;
        return;
      }
      ++stats_.deliveries;
      if (it->second.handler) it->second.handler(sender, copy);
    });
  }

  sim::Simulator& sim_;
  net::RadioConfig config_;
  std::map<NodeId, Host> hosts_;
  net::MediumStats stats_;
};

std::vector<NodeId> sorted_ids(std::vector<NodeId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Where one randomized script places its hosts: the square every layout
/// position and every move is drawn from, plus the script stream's salt.
struct Arena {
  double width;
  double height;
  std::uint64_t salt;
  bool expect_snapshot_hits;
};

/// Many grid cells, a few hosts each: exercises the spatial index.
constexpr Arena kSparse{1200.0, 900.0, 17, false};
/// At most 2x2 cells of 250 m: bursts from many senders per cell, so most
/// broadcasts reuse a per-cell snapshot built by an earlier sender.
constexpr Arena kDense{300.0, 300.0, 29, true};

/// Drives Medium and the brute-force reference through the same randomized
/// script (single broadcasts, HELLO-round bursts, node moves, radio
/// toggles, detach + re-attach) and compares neighbor sets, stats and the
/// full delivery trace.
void run_equivalence_round(std::uint64_t seed, const Arena& arena) {
  sim::Rng script{seed * 7919 + arena.salt};

  const auto n = static_cast<std::size_t>(script.uniform_int(8, 96));
  net::RadioConfig config;
  config.range_m = 250.0;
  config.loss_probability = 0.15 * static_cast<double>(seed % 3);
  config.delay_jitter =
      seed % 2 == 0 ? sim::Duration::from_us(500) : sim::Duration{};
  config.collision_window =
      seed % 4 == 0 ? sim::Duration::from_us(300) : sim::Duration{};

  auto random_position = [&] {
    return Position{script.uniform_real(0.0, arena.width),
                    script.uniform_real(0.0, arena.height)};
  };
  auto random_node = [&] {
    return NodeId{static_cast<std::uint32_t>(
        script.uniform_int(0, static_cast<std::int64_t>(n) - 1))};
  };
  auto random_payload = [&] {
    Bytes payload(static_cast<std::size_t>(script.uniform_int(1, 80)));
    for (auto& b : payload)
      b = static_cast<std::uint8_t>(script.uniform_int(0, 255));
    return payload;
  };

  std::vector<Position> layout;
  layout.reserve(n);
  for (std::size_t i = 0; i < n; ++i) layout.push_back(random_position());

  sim::Simulator sim_a{seed + 1};
  sim::Simulator sim_b{seed + 1};
  net::Medium medium{sim_a, config};
  BruteForceMedium brute{sim_b, config};

  std::vector<Delivery> trace_a;
  std::vector<Delivery> trace_b;
  auto attach_medium = [&](NodeId id, Position pos) {
    medium.attach(id, pos, [&trace_a, id, &sim_a](const net::Packet& p) {
      trace_a.push_back(Delivery{sim_a.now().us(), id.value(),
                                 p.transmitter.value(), p.payload()});
    });
  };
  auto attach_brute = [&](NodeId id, Position pos) {
    brute.attach(id, pos,
                 [&trace_b, id, &sim_b](NodeId from, const Bytes& payload) {
                   trace_b.push_back(Delivery{sim_b.now().us(), id.value(),
                                              from.value(), payload});
                 });
  };
  for (std::size_t i = 0; i < n; ++i) {
    attach_medium(NodeId{static_cast<std::uint32_t>(i)}, layout[i]);
    attach_brute(NodeId{static_cast<std::uint32_t>(i)}, layout[i]);
  }

  auto broadcast_both = [&](sim::Time at, NodeId id, const Bytes& payload) {
    sim_a.schedule_at(at, [&medium, id, payload] {
      medium.broadcast(id, payload);
    });
    sim_b.schedule_at(at, [&brute, id, payload] {
      brute.broadcast(id, payload);
    });
  };

  // Script: the actions below at increasing times, mirrored into both
  // simulators.
  sim::Time t;
  for (int step = 0; step < 60; ++step) {
    t += sim::Duration::from_us(script.uniform_int(0, 2000));
    const auto action = script.uniform_int(0, 11);
    if (action < 7) {
      // One broadcast, or a HELLO round: several senders fire within
      // 100 us of each other with no mutation in between, so they share
      // per-cell snapshots.
      const auto senders = action < 5 ? 1 : script.uniform_int(2, 8);
      for (std::int64_t b = 0; b < senders; ++b) {
        if (b > 0) t += sim::Duration::from_us(script.uniform_int(0, 100));
        const NodeId id = random_node();
        broadcast_both(t, id, random_payload());
      }
    } else if (action < 9) {
      const NodeId id = random_node();
      const Position pos = random_position();
      sim_a.schedule_at(t, [&medium, id, pos] {
        medium.set_position(id, pos);
      });
      sim_b.schedule_at(t, [&brute, id, pos] { brute.set_position(id, pos); });
    } else if (action < 11) {
      const NodeId id = random_node();
      const bool up = script.bernoulli(0.7);
      sim_a.schedule_at(t, [&medium, id, up] { medium.set_up(id, up); });
      sim_b.schedule_at(t, [&brute, id, up] { brute.set_up(id, up); });
    } else {
      // Detach + re-attach at a fresh position: the slot compaction (grid
      // replace) under live snapshots, and frames in flight toward the
      // host's old incarnation.
      const NodeId id = random_node();
      const Position pos = random_position();
      sim_a.schedule_at(t, [&medium, &attach_medium, id, pos] {
        medium.detach(id);
        attach_medium(id, pos);
      });
      sim_b.schedule_at(t, [&brute, &attach_brute, id, pos] {
        brute.detach(id);
        attach_brute(id, pos);
      });
    }
  }

  sim_a.run_all();
  sim_b.run_all();

  ASSERT_EQ(trace_a.size(), trace_b.size()) << "seed " << seed;
  for (std::size_t i = 0; i < trace_a.size(); ++i)
    ASSERT_EQ(trace_a[i], trace_b[i]) << "seed " << seed << " delivery " << i;

  EXPECT_EQ(medium.stats().frames_sent, brute.stats().frames_sent);
  EXPECT_EQ(medium.stats().deliveries, brute.stats().deliveries);
  EXPECT_EQ(medium.stats().losses, brute.stats().losses);
  EXPECT_EQ(medium.stats().collisions, brute.stats().collisions);
  EXPECT_EQ(medium.stats().bytes_sent, brute.stats().bytes_sent);
  if (arena.expect_snapshot_hits) {
    EXPECT_GT(medium.batch_stats().snapshot_hits, 0u) << "seed " << seed;
  }

  for (std::size_t i = 0; i < n; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    EXPECT_EQ(medium.neighbors_in_range(id),
              sorted_ids(brute.neighbors_in_range(id)))
        << "seed " << seed << " node " << i;
  }
}

class MediumIndexEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MediumIndexEquivalence, MatchesBruteForceReference) {
  run_equivalence_round(GetParam(), kSparse);
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, MediumIndexEquivalence,
                         ::testing::Range<std::uint64_t>(0, 50));

// The same script crowded into a few cells: broadcasts sharing one
// snapshot must still match the per-sender full-scan reference.
class MediumBatchEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MediumBatchEquivalence, MatchesPerSenderPath) {
  run_equivalence_round(GetParam(), kDense);
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, MediumBatchEquivalence,
                         ::testing::Range<std::uint64_t>(0, 50));

// Detach compacts the dense host storage (swap with the last slot); the
// grid index must keep tracking the moved host.
TEST(MediumIndex, DetachKeepsIndexConsistent) {
  sim::Simulator sim{3};
  net::RadioConfig config;
  config.range_m = 100.0;
  config.delay_jitter = sim::Duration{};
  net::Medium m{sim, config};

  int received = 0;
  for (std::uint32_t i = 0; i < 5; ++i) {
    m.attach(NodeId{i}, Position{static_cast<double>(i) * 50.0, 0.0},
             [&received](const net::Packet&) { ++received; });
  }
  m.detach(NodeId{2});
  EXPECT_FALSE(m.attached(NodeId{2}));
  EXPECT_EQ(m.neighbors_in_range(NodeId{1}),
            (std::vector<NodeId>{NodeId{0}, NodeId{3}}));

  // The swapped slot (node 4) must still receive and still move correctly.
  m.broadcast(NodeId{3}, Bytes{1});  // reaches nodes 1 (100 m) and 4 (50 m)
  sim.run_all();
  EXPECT_EQ(received, 2);

  m.set_position(NodeId{4}, Position{1000.0, 1000.0});
  EXPECT_TRUE(m.neighbors_in_range(NodeId{4}).empty());
  m.set_position(NodeId{4}, Position{150.0, 0.0});
  EXPECT_EQ(m.neighbors_in_range(NodeId{4}),
            (std::vector<NodeId>{NodeId{1}, NodeId{3}}));
}

// The topology helpers share the grid index; their results must match the
// quadratic definitions exactly.
TEST(MediumIndex, AdjacencyMatchesPairScan) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    sim::Rng rng{seed};
    std::vector<Position> pts;
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 200));
    for (std::size_t i = 0; i < n; ++i)
      pts.push_back(Position{rng.uniform_real(0.0, 2000.0),
                             rng.uniform_real(0.0, 2000.0)});
    const double range = rng.uniform_real(50.0, 400.0);

    std::vector<std::vector<std::size_t>> expected(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (net::distance(pts[i], pts[j]) <= range) {
          expected[i].push_back(j);
          expected[j].push_back(i);
        }
      }
    }
    EXPECT_EQ(net::adjacency(pts, range), expected) << "seed " << seed;
  }
}

TEST(MediumIndex, RandomLayoutHonorsMinSeparation) {
  sim::Rng rng{11};
  const auto pts = net::random_layout(200, 2000.0, 2000.0, 60.0, rng);
  ASSERT_EQ(pts.size(), 200u);
  for (std::size_t i = 0; i < pts.size(); ++i)
    for (std::size_t j = i + 1; j < pts.size(); ++j)
      ASSERT_GE(net::distance(pts[i], pts[j]), 60.0);
}

}  // namespace
