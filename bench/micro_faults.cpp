// Checkpoint codec throughput: serialize and restore the per-node state
// a fault-tolerant run snapshots — the trust store (trust rows +
// interaction counters), one RNG cursor per node, and the Medium's radio
// state (up/down, brown-out overrides, partition ids) with an in-flight
// frame registry — at N in {256, 1024} nodes.
//
// The gauge drives the section transfers (faults/checkpoint.hpp) over
// synthetically populated state rather than a live TrustExperiment: a
// converged dense-cluster experiment at N=256 already carries ~160 MB of
// OLSR topology and takes minutes of CPU to set up, which would gauge
// protocol convergence, not the codec. Here every byte is written and
// read back under the benchmark clock, so bytes_per_second is the honest
// save/restore throughput of the wire format itself.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "faults/checkpoint.hpp"
#include "net/medium.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "trust/trust_store.hpp"

using namespace manet;

namespace {

constexpr std::size_t kFlightsPerNode = 4;
constexpr std::size_t kPayloadBytes = 128;  // a typical HELLO wire size

std::vector<sim::Rng::State> make_cursors(std::size_t n) {
  std::vector<sim::Rng::State> cursors(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (int j = 0; j < 4; ++j)
      cursors[i].s[j] = 0x9E3779B97F4A7C15ull * (4 * i + j + 1);
    cursors[i].has_cached_normal = (i % 2) == 0;
    cursors[i].cached_normal = static_cast<double>(i) * 0.25;
  }
  return cursors;
}

trust::TrustStore make_trust(std::size_t n) {
  trust::TrustStore store;
  std::vector<std::pair<net::NodeId, double>> trust;
  std::vector<trust::TrustStore::Counter> counters;
  trust.reserve(n);
  counters.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const net::NodeId id{static_cast<std::uint32_t>(i)};
    trust.emplace_back(id, 0.05 + 0.9 * static_cast<double>(i % 97) / 97.0);
    counters.push_back(
        {id, static_cast<int>(i % 13), static_cast<int>(i % 13 + i % 7)});
  }
  store.restore(std::move(trust), std::move(counters));
  return store;
}

/// A Medium with N attached hosts in a mid-fault-plan world: a quarter of
/// the fleet browned out, half partitioned, a few hosts down, and
/// kFlightsPerNode airborne frames per node in the in-flight registry.
std::unique_ptr<net::Medium> make_medium(sim::Simulator& sim, std::size_t n) {
  net::RadioConfig rc;
  rc.range_m = 250.0;
  // 300 m spacing: no host in range of another, so injected flights are
  // the only traffic and the registry size is exactly what we set.
  const auto layout = net::grid_layout(n, 300.0);
  auto medium = std::make_unique<net::Medium>(sim, rc);
  medium->set_track_in_flight(true);
  for (std::size_t i = 0; i < n; ++i)
    medium->attach(net::NodeId{static_cast<std::uint32_t>(i)}, layout[i]);
  for (std::size_t i = 0; i < n; ++i) {
    const net::NodeId id{static_cast<std::uint32_t>(i)};
    if (i % 4 == 0) medium->set_loss_override(id, 0.6);
    if (i % 2 == 0) medium->set_partition(id, 1);
    if (i % 16 == 0) medium->set_up(id, false);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < kFlightsPerNode; ++k) {
      net::InFlightFrame f;
      f.receiver = net::NodeId{static_cast<std::uint32_t>(i)};
      f.transmitter = net::NodeId{static_cast<std::uint32_t>((i + 1) % n)};
      f.link_dest = f.receiver;
      f.payload.assign(kPayloadBytes, static_cast<std::uint8_t>(i + k));
      f.sent_at = sim::Time::from_us(static_cast<std::int64_t>(i));
      f.arrival = sim::Time::from_ms(1 + static_cast<std::int64_t>(k));
      f.seq = i * kFlightsPerNode + k;
      medium->restore_in_flight(f);
    }
  }
  return medium;
}

std::vector<std::uint8_t> encode_snapshot(
    const trust::TrustStore& store,
    const std::vector<sim::Rng::State>& cursors, const net::Medium& medium) {
  faults::CheckpointWriter w;
  w.u32(faults::kCheckpointMagic);
  w.u32(faults::kCheckpointVersion);
  trust::transfer_trust_snapshot(w, store.trust_rows(),
                                 store.interaction_rows());
  w.list(cursors, [&w](const auto& st) { faults::transfer_rng(w, st); });
  const auto image = faults::medium_image(medium);
  faults::transfer_medium(w, image);
  return w.take();
}

}  // namespace

static void BM_CheckpointSave(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto store = make_trust(n);
  const auto cursors = make_cursors(n);
  sim::Simulator sim{42};
  const auto medium = make_medium(sim, n);

  std::size_t bytes = 0;
  for (auto _ : state) {
    auto snapshot = encode_snapshot(store, cursors, *medium);
    bytes = snapshot.size();
    benchmark::DoNotOptimize(snapshot.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(bytes * static_cast<std::size_t>(state.iterations())));
  state.counters["snapshot_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_CheckpointSave)->Arg(256)->Arg(1024)->Unit(benchmark::kMicrosecond);

static void BM_CheckpointRestore(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto bytes = [&] {
    sim::Simulator sim{42};
    const auto medium = make_medium(sim, n);
    return encode_snapshot(make_trust(n), make_cursors(n), *medium);
  }();

  // Decode targets: a cold store and a Medium with the hosts attached but
  // no fault state — decode applies per-host state in place, so reusing
  // the same target across iterations mirrors the restore path exactly.
  trust::TrustStore target_store;
  sim::Simulator sim{43};
  net::RadioConfig rc;
  rc.range_m = 250.0;
  const auto layout = net::grid_layout(n, 300.0);
  net::Medium target{sim, rc};
  for (std::size_t i = 0; i < n; ++i)
    target.attach(net::NodeId{static_cast<std::uint32_t>(i)}, layout[i]);

  for (auto _ : state) {
    faults::CheckpointReader r{bytes};
    if (r.u32() != faults::kCheckpointMagic) state.SkipWithError("bad magic");
    if (r.u32() != faults::kCheckpointVersion)
      state.SkipWithError("bad version");
    std::vector<std::pair<net::NodeId, double>> rows;
    std::vector<trust::TrustStore::Counter> counters;
    trust::transfer_trust_snapshot(r, rows, counters);
    target_store.restore(std::move(rows), std::move(counters));
    const auto cursor_count = r.count();
    for (std::size_t i = 0; i < cursor_count; ++i) {
      sim::Rng::State st;
      faults::transfer_rng(r, st);
      benchmark::DoNotOptimize(st);
    }
    faults::MediumImage image;
    faults::transfer_medium(r, image);
    faults::restore_medium(image, target);
    benchmark::DoNotOptimize(image.flights.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      bytes.size() * static_cast<std::size_t>(state.iterations())));
  state.counters["snapshot_bytes"] = static_cast<double>(bytes.size());
}
BENCHMARK(BM_CheckpointRestore)->Arg(256)->Arg(1024)->Unit(benchmark::kMicrosecond);
