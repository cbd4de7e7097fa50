// Micro-benchmarks of the simulation hot path: medium broadcast rounds
// (spatial grid + per-cell receiver snapshots), event-queue churn, and
// unit-disk adjacency construction. tools/bench_report records them in the
// BENCH_N series.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "net/medium.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

using namespace manet;

namespace {

// Grid layouts at the default 250 m range: 180 m spacing gives ~8
// in-range neighbors per node (~2 senders per 250 m cell), so per-node
// density stays constant as N grows; 88 m is the dense variant (~8 senders
// per cell, ~24 in-range neighbors) where the per-cell receiver snapshots
// are shared most.
std::vector<net::Position> bench_layout(std::size_t n, double spacing = 180.0) {
  return net::grid_layout(n, spacing);
}

net::Bytes hello_sized_payload() { return net::Bytes(60, 0xAB); }

}  // namespace

// One HELLO round: every node broadcasts one HELLO-sized frame, then the
// queue drains. Items processed = broadcasts. Args: N, grid spacing (m).
static void BM_MediumBroadcast(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim{42};
  net::Medium medium{sim, net::RadioConfig{}};
  const auto layout = bench_layout(n, static_cast<double>(state.range(1)));
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < n; ++i) {
    medium.attach(net::NodeId{static_cast<std::uint32_t>(i)}, layout[i],
                  [&delivered](const net::Packet& p) {
                    delivered += p.payload().size();
                  });
  }
  const auto payload = hello_sized_payload();
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i)
      medium.broadcast(net::NodeId{static_cast<std::uint32_t>(i)}, payload);
    sim.run_all();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MediumBroadcast)
    ->Args({16, 180})
    ->Args({64, 180})
    ->Args({256, 180})
    ->Args({1024, 180})
    ->Args({1024, 88});

// Schedule a batch at random times, cancel half, drain — the allocation and
// heap churn pattern of OLSR timers and investigation timeouts.
static void BM_EventQueueChurn(benchmark::State& state) {
  constexpr int kBatch = 1024;
  sim::Rng rng{7};
  std::uint64_t fired = 0;
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<sim::EventId> ids;
    ids.reserve(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      ids.push_back(q.schedule(sim::Time::from_us(rng.uniform_int(0, 1000000)),
                               [&fired] { ++fired; }));
    }
    for (int i = 0; i < kBatch; i += 2) q.cancel(ids[i]);
    while (!q.empty()) q.run_next();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EventQueueChurn);

static void BM_Adjacency(benchmark::State& state) {
  const auto layout = bench_layout(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::adjacency(layout, 250.0));
  }
}
BENCHMARK(BM_Adjacency)->Arg(256)->Arg(1024);

static void BM_RandomLayoutMinSep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sim::Rng rng{seed++};
    benchmark::DoNotOptimize(
        net::random_layout(n, 5000.0, 5000.0, 30.0, rng));
  }
}
BENCHMARK(BM_RandomLayoutMinSep)->Arg(256)->Arg(1024);
