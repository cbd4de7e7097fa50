// Micro-benchmarks of the observability layer. The load-bearing gauge is
// BM_CounterInc/disabled: with no Context bound, a hot-counter record site
// must cost one predicted-not-taken branch (~sub-ns), because the entire
// simulation stack is instrumented unconditionally and golden-trace runs
// ship with observability off.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "obs/obs.hpp"
#include "sim/time.hpp"

using namespace manet;

// Hot-counter increment. Arg 0: unbound thread (the disabled no-op path).
// Arg 1: bound Context shard (enabled: one TLS load + array add).
static void BM_CounterInc(benchmark::State& state) {
  obs::Context ctx;
  const bool enabled = state.range(0) != 0;
  if (enabled) {
    obs::Scope scope{&ctx};
    for (auto _ : state) {
      obs::hit(obs::Hot::kMediumBatchedBroadcasts);
      benchmark::ClobberMemory();
    }
  } else {
    for (auto _ : state) {
      obs::hit(obs::Hot::kMediumBatchedBroadcasts);
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(enabled ? "enabled" : "disabled");
}
BENCHMARK(BM_CounterInc)->Arg(0)->Arg(1);

// Complete-span record into the flight-recorder ring (tracing on), steady
// state with the ring wrapping — the cost added to a round/window boundary.
static void BM_SpanEnterExit(benchmark::State& state) {
  obs::Context::Config config;
  config.tracing = true;
  config.ring_capacity = 1024;
  obs::Context ctx{config};
  obs::Scope scope{&ctx};
  std::int64_t t = 0;
  for (auto _ : state) {
    const auto begin = sim::Time::from_us(t);
    const auto end = sim::Time::from_us(t + 500);
    obs::span(obs::SpanName::kRound, begin, end);
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanEnterExit);

// Span record with no Context bound — the disabled tracing path.
static void BM_SpanDisabled(benchmark::State& state) {
  std::int64_t t = 0;
  for (auto _ : state) {
    obs::span(obs::SpanName::kRound, sim::Time::from_us(t),
              sim::Time::from_us(t + 500));
    benchmark::ClobberMemory();
    t += 1000;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanDisabled);

// Merged snapshot of a populated registry: range(0) named counters plus
// the hot array, folded across one shard and name-sorted — the per-barrier
// harvest cost in the Runner.
static void BM_RegistrySnapshot(benchmark::State& state) {
  obs::Context ctx;
  obs::Scope scope{&ctx};
  const auto names = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < names; ++i) {
    auto c = obs::counter("manet_bench_counter_" + std::to_string(i));
    c.inc(i);
  }
  for (std::size_t h = 0; h < static_cast<std::size_t>(obs::Hot::kCount); ++h)
    obs::hit(static_cast<obs::Hot>(h), 3);
  for (auto _ : state) {
    auto snap = ctx.snapshot();
    benchmark::DoNotOptimize(snap.counters.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistrySnapshot)->Arg(8)->Arg(64);
