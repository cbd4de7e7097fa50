#include "sim/timer.hpp"

#include <stdexcept>
#include <utility>

namespace manet::sim {

PeriodicTimer::PeriodicTimer(Engine& sim, Duration period, Duration jitter,
                             std::function<void()> on_fire)
    : sim_{sim}, period_{period}, jitter_{jitter}, on_fire_{std::move(on_fire)} {
  if (period_ <= Duration{}) throw std::invalid_argument{"period must be > 0"};
  if (jitter_ < Duration{} || jitter_ >= period_)
    throw std::invalid_argument{"jitter must be in [0, period)"};
}

PeriodicTimer::~PeriodicTimer() { stop(); }

void PeriodicTimer::start() {
  if (running_) return;
  running_ = true;
  schedule_next();
}

void PeriodicTimer::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(pending_);
  pending_ = EventId{};
}

void PeriodicTimer::schedule_next() {
  Duration delay = period_;
  if (jitter_ > Duration{}) {
    const auto sub = sim_.rng().uniform_int(0, jitter_.us());
    delay = Duration::from_us(period_.us() - sub);
  }
  arm_at(sim_.now() + delay);
}

void PeriodicTimer::resume_at(Time at) {
  if (running_) throw std::logic_error{"resume_at on a running timer"};
  running_ = true;
  arm_at(at);
}

void PeriodicTimer::arm_at(Time at) {
  next_fire_ = at;
  pending_ = sim_.schedule_at(at, [this] {
    if (!running_) return;
    schedule_next();
    on_fire_();
  });
}

void OneShotTimer::arm(Duration delay, std::function<void()> on_fire) {
  cancel();
  armed_ = true;
  pending_ = sim_.schedule(delay, [this, fire = std::move(on_fire)] {
    armed_ = false;
    fire();
  });
}

void OneShotTimer::cancel() {
  if (!armed_) return;
  sim_.cancel(pending_);
  pending_ = EventId{};
  armed_ = false;
}

}  // namespace manet::sim
