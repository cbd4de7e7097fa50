// Unit tests for the simulation kernel: time, rng, event queue, simulator,
// timers.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"

namespace manet::sim {
namespace {

TEST(Time, ConversionsRoundTrip) {
  EXPECT_EQ(Time::from_ms(1500).us(), 1'500'000);
  EXPECT_DOUBLE_EQ(Time::from_seconds(2.5).seconds(), 2.5);
  EXPECT_EQ(Time::from_seconds(0.000001).us(), 1);
}

TEST(Time, Arithmetic) {
  const auto a = Time::from_ms(100);
  const auto b = Time::from_ms(250);
  EXPECT_EQ((a + b).us(), 350'000);
  EXPECT_EQ((b - a).us(), 150'000);
  EXPECT_LT(a, b);
  EXPECT_EQ(a + a, Time::from_ms(200));
}

TEST(Time, ToStringFormatsMicroseconds) {
  EXPECT_EQ(Time::from_us(1'234'567).to_string(), "1.234567s");
  EXPECT_EQ(Time{}.to_string(), "0.000000s");
  EXPECT_EQ(Time::from_seconds(42.0).to_string(), "42.000000s");
}

TEST(Time, UserDefinedLiterals) {
  EXPECT_EQ((5_s).us(), 5'000'000);
  EXPECT_EQ((250_ms).us(), 250'000);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r{7};
  for (int i = 0; i < 10'000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r{11};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2'000; ++i) {
    const auto v = r.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton) {
  Rng r{13};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(5, 5), 5);
}

// The draw sequence is part of the determinism contract (every golden
// fixture rests on it): these values were taken from the signed-span
// implementation over ranges it handles without overflow, spans up to 2^63
// included, and any rewrite of uniform_int must reproduce them.
TEST(Rng, UniformIntPinnedSequence) {
  using L = std::numeric_limits<std::int64_t>;
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {0, 100'000},
      {-1, 2},
      {1500, 7000},
      {5, 5},
      {-1'000'000'000'000, 1'000'000'000'000},
      {L::min() / 2, L::max() / 2},
      {L::min(), -1},
      {0, L::max()}};
  const std::int64_t expected[] = {
      94724, 0, 1864, 5, -258336360202, -94592607814986507,
      -1949160658001041496, 4740947161906248556,
      4517, -1, 3398, 5, -743950686919, 2145813767037329269,
      -5720219049799833339, 790500823250529545};
  Rng r{2024};
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    const auto& [lo, hi] = ranges[i % std::size(ranges)];
    EXPECT_EQ(r.uniform_int(lo, hi), expected[i]) << "draw " << i;
  }
}

// Spans past INT64_MAX: the full range takes next_u64 as is, and ranges
// one short of it at either end stay inside their bounds and reach both
// signs. Under UBSan this also checks that no signed arithmetic overflows.
TEST(Rng, UniformIntWiderThanInt64Max) {
  using L = std::numeric_limits<std::int64_t>;
  Rng r{29}, raw{29};
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(r.uniform_int(L::min(), L::max()),
              static_cast<std::int64_t>(raw.next_u64()));
  int negative = 0;
  for (int i = 0; i < 100; ++i) {
    const auto low = r.uniform_int(L::min(), L::max() - 1);
    const auto high = r.uniform_int(L::min() + 1, L::max());
    EXPECT_LT(low, L::max());
    EXPECT_GT(high, L::min());
    negative += (low < 0) + (high < 0);
  }
  EXPECT_GT(negative, 0);
  EXPECT_LT(negative, 200);
}

TEST(Rng, BernoulliEdges) {
  Rng r{17};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliApproximatesProbability) {
  Rng r{19};
  int hits = 0;
  for (int i = 0; i < 100'000; ++i)
    if (r.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits / 100'000.0, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng r{23};
  double sum = 0.0, sum2 = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(10.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a{31};
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Rng, ShufflePermutes) {
  Rng r{37};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto copy = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(Time::from_ms(30), [&] { fired.push_back(3); });
  q.schedule(Time::from_ms(10), [&] { fired.push_back(1); });
  q.schedule(Time::from_ms(20), [&] { fired.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TieBrokenByInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i)
    q.schedule(Time::from_ms(10), [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const auto id = q.schedule(Time::from_ms(5), [&] { ran = true; });
  q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  const auto id = q.schedule(Time::from_ms(5), [] {});
  q.schedule(Time::from_ms(6), [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunNextOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.run_next(), std::logic_error);
  EXPECT_THROW(q.next_time(), std::logic_error);
}

TEST(EventQueueWindow, MatchesSequentialScheduleOrder) {
  // A coalesced window must be observationally identical to scheduling
  // each event individually: same pop order, ties by add order.
  EventQueue q;
  std::vector<int> fired;
  q.schedule(Time::from_ms(25), [&] { fired.push_back(25); });
  {
    auto w = q.open_window(Time::from_ms(0));
    w.add(Time::from_ms(30), [&] { fired.push_back(30); });
    w.add(Time::from_ms(10), [&] { fired.push_back(10); });
    w.add(Time::from_ms(10), [&] { fired.push_back(11); });
    w.add(Time::from_ms(20), [&] { fired.push_back(20); });
  }  // destructor closes
  while (!q.empty()) q.run_next();
  EXPECT_EQ(fired, (std::vector<int>{10, 11, 20, 25, 30}));
}

TEST(EventQueueWindow, RejectsAddBeforeFloor) {
  EventQueue q;
  auto w = q.open_window(Time::from_ms(10));
  EXPECT_THROW(w.add(Time::from_ms(5), [] {}), std::invalid_argument);
}

TEST(EventQueueWindow, GuardsOtherOperationsWhileOpen) {
  // The heap invariant is suspended while a window is open; any other
  // queue operation must fail loudly instead of reordering events.
  EventQueue q;
  q.schedule(Time::from_ms(1), [] {});
  auto w = q.open_window(Time::from_ms(0));
  w.add(Time::from_ms(2), [] {});
  EXPECT_THROW(q.schedule(Time::from_ms(3), [] {}), std::logic_error);
  EXPECT_THROW(q.cancel(EventId{}), std::logic_error);
  EXPECT_THROW(q.empty(), std::logic_error);
  EXPECT_THROW(q.next_time(), std::logic_error);
  EXPECT_THROW(q.run_next(), std::logic_error);
  EXPECT_THROW(q.open_window(Time::from_ms(0)), std::logic_error);
  w.close();
  EXPECT_FALSE(q.empty());
  std::size_t ran = 0;
  while (!q.empty()) {
    q.run_next();
    ++ran;
  }
  EXPECT_EQ(ran, 2u);
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue q;
  int count = 0;
  q.schedule(Time::from_ms(1), [&] {
    ++count;
    q.schedule(Time::from_ms(2), [&] { ++count; });
  });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim{1};
  std::vector<std::int64_t> times;
  sim.schedule(Duration::from_ms(5), [&] { times.push_back(sim.now().us()); });
  sim.schedule(Duration::from_ms(10), [&] { times.push_back(sim.now().us()); });
  sim.run_all();
  EXPECT_EQ(times, (std::vector<std::int64_t>{5'000, 10'000}));
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim{1};
  int fired = 0;
  sim.schedule(Duration::from_ms(5), [&] { ++fired; });
  sim.schedule(Duration::from_ms(50), [&] { ++fired; });
  sim.run_until(Time::from_ms(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time::from_ms(10));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator sim{1};
  EXPECT_THROW(sim.schedule(Duration::from_ms(-1), [] {}),
               std::invalid_argument);
}

TEST(Simulator, ScheduleAtPastThrows) {
  Simulator sim{1};
  sim.schedule(Duration::from_ms(10), [] {});
  sim.run_all();
  EXPECT_THROW(sim.schedule_at(Time::from_ms(5), [] {}),
               std::invalid_argument);
}

TEST(Simulator, StepExecutesOne) {
  Simulator sim{1};
  int fired = 0;
  sim.schedule(Duration::from_ms(1), [&] { ++fired; });
  sim.schedule(Duration::from_ms(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(PeriodicTimer, FiresAtPeriodWithoutJitter) {
  Simulator sim{1};
  std::vector<std::int64_t> at;
  PeriodicTimer t{sim, Duration::from_ms(100), Duration{},
                  [&] { at.push_back(sim.now().us()); }};
  t.start();
  sim.run_until(Time::from_ms(350));
  t.stop();
  EXPECT_EQ(at, (std::vector<std::int64_t>{100'000, 200'000, 300'000}));
}

TEST(PeriodicTimer, JitterStaysWithinBounds) {
  Simulator sim{99};
  std::vector<std::int64_t> at;
  PeriodicTimer t{sim, Duration::from_ms(100), Duration::from_ms(30),
                  [&] { at.push_back(sim.now().us()); }};
  t.start();
  sim.run_until(Time::from_seconds(10.0));
  t.stop();
  ASSERT_GT(at.size(), 50u);
  for (std::size_t i = 1; i < at.size(); ++i) {
    const auto gap = at[i] - at[i - 1];
    EXPECT_GE(gap, 70'000);
    EXPECT_LE(gap, 100'000);
  }
}

TEST(PeriodicTimer, StopCancelsFutureFirings) {
  Simulator sim{1};
  int fired = 0;
  PeriodicTimer t{sim, Duration::from_ms(10), Duration{}, [&] { ++fired; }};
  t.start();
  sim.run_until(Time::from_ms(25));
  t.stop();
  sim.run_until(Time::from_ms(100));
  EXPECT_EQ(fired, 2);
}

TEST(PeriodicTimer, InvalidConfigThrows) {
  Simulator sim{1};
  EXPECT_THROW(PeriodicTimer(sim, Duration{}, Duration{}, [] {}),
               std::invalid_argument);
  EXPECT_THROW(
      PeriodicTimer(sim, Duration::from_ms(5), Duration::from_ms(5), [] {}),
      std::invalid_argument);
}

TEST(OneShotTimer, FiresOnce) {
  Simulator sim{1};
  int fired = 0;
  OneShotTimer t{sim};
  t.arm(Duration::from_ms(10), [&] { ++fired; });
  EXPECT_TRUE(t.armed());
  sim.run_until(Time::from_ms(50));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.armed());
}

TEST(OneShotTimer, CancelAndRearm) {
  Simulator sim{1};
  int fired = 0;
  OneShotTimer t{sim};
  t.arm(Duration::from_ms(10), [&] { fired = 1; });
  t.cancel();
  t.arm(Duration::from_ms(20), [&] { fired = 2; });
  sim.run_until(Time::from_ms(50));
  EXPECT_EQ(fired, 2);
}

// Property sweep: a run is reproducible — same seed, same event trace.
class SimDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimDeterminism, IdenticalTraces) {
  auto run = [&](std::uint64_t seed) {
    Simulator sim{seed};
    std::vector<std::int64_t> trace;
    for (int i = 0; i < 50; ++i) {
      sim.schedule(Duration::from_us(sim.rng().uniform_int(1, 1'000'000)),
                   [&trace, &sim] { trace.push_back(sim.now().us()); });
    }
    sim.run_all();
    return trace;
  };
  EXPECT_EQ(run(GetParam()), run(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimDeterminism,
                         ::testing::Values(1, 2, 3, 42, 1337, 0xDEAD));

}  // namespace
}  // namespace manet::sim
