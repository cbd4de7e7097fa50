#pragma once

#include <functional>

#include "sim/engine.hpp"

namespace manet::sim {

/// Periodic timer with optional uniform jitter, as required by RFC 3626
/// (§18.3: emission intervals should be jittered to avoid synchronization).
/// The timer stops automatically when destroyed (RAII).
///
/// Determinism contract: each arming draws exactly one uniform_int from the
/// simulator RNG when jitter > 0 (and none otherwise), before `on_fire`
/// runs; rearming happens before `on_fire` so the callback's own draws come
/// after the rearm draw.
class PeriodicTimer {
 public:
  /// `jitter` is the maximum amount subtracted uniformly at random from each
  /// period, i.e. the next firing is period - U[0, jitter] from the last.
  PeriodicTimer(Engine& sim, Duration period, Duration jitter,
                std::function<void()> on_fire);
  ~PeriodicTimer();

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start();
  void stop();
  bool running() const { return running_; }

  void set_period(Duration period) { period_ = period; }
  Duration period() const { return period_; }

  /// Absolute time of the currently pending firing (meaningful only while
  /// running). Checkpoints record this so a restore can re-arm at exactly
  /// the pre-snapshot moment.
  Time next_fire() const { return next_fire_; }

  /// Insertion sequence of the pending event — the checkpoint sort key.
  std::uint64_t pending_seq() const { return pending_.raw(); }

  /// Checkpoint restore: arms the timer at the absolute time a snapshot
  /// recorded WITHOUT drawing jitter — that draw already happened when the
  /// original arming ran. Subsequent rearms draw normally again.
  void resume_at(Time at);

 private:
  void schedule_next();
  void arm_at(Time at);

  Engine& sim_;
  Duration period_;
  Duration jitter_;
  std::function<void()> on_fire_;
  EventId pending_{};
  Time next_fire_{};
  bool running_ = false;
};

/// Single-shot timer handle (RAII cancel), used for investigation timeouts.
class OneShotTimer {
 public:
  explicit OneShotTimer(Engine& sim) : sim_{sim} {}
  ~OneShotTimer() { cancel(); }

  OneShotTimer(const OneShotTimer&) = delete;
  OneShotTimer& operator=(const OneShotTimer&) = delete;

  void arm(Duration delay, std::function<void()> on_fire);
  void cancel();
  bool armed() const { return armed_; }

 private:
  Engine& sim_;
  EventId pending_{};
  bool armed_ = false;
};

}  // namespace manet::sim
