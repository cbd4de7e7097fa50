#include "faults/injector.hpp"

#include <stdexcept>

#include "obs/obs.hpp"

namespace manet::faults {

FaultInjector::FaultInjector(sim::Engine& sim, net::Medium& medium,
                             FaultPlan plan, NodeOps ops)
    : sim_{sim}, medium_{medium}, plan_{std::move(plan)}, ops_{std::move(ops)} {
  for (std::size_t i = 1; i < plan_.events.size(); ++i) {
    if (plan_.events[i].at < plan_.events[i - 1].at)
      throw std::invalid_argument{"fault plan not sorted by time"};
  }
}

void FaultInjector::arm() {
  if (armed_ || cursor_ >= plan_.events.size()) return;
  const FaultEvent& e = plan_.events[cursor_];
  armed_ = true;
  pending_at_ = e.at;
  const sim::EventId ev = sim_.schedule_at(e.at, [this] {
    armed_ = false;
    const FaultEvent& ev = plan_.events[cursor_++];
    execute(ev);
    arm();
  });
  pending_seq_ = ev.raw();
}

void FaultInjector::run_until(sim::Time now) {
  if (armed_) throw std::logic_error{"run_until on an armed injector"};
  while (cursor_ < plan_.events.size() && plan_.events[cursor_].at <= now)
    execute(plan_.events[cursor_++]);
}

void FaultInjector::restore(
    std::size_t cursor, std::vector<std::pair<NodeId, sim::Time>> down_since,
    sim::Time last_disruption, sim::Time last_heal) {
  if (armed_) throw std::logic_error{"restore on an armed injector"};
  if (cursor > plan_.events.size())
    throw std::invalid_argument{"fault cursor past the plan"};
  cursor_ = cursor;
  down_since_ = std::move(down_since);
  last_disruption_ = last_disruption;
  last_heal_ = last_heal;
}

sim::Time FaultInjector::down_since(NodeId node) const {
  const auto* since = sim::slab_get(down_since_, node);
  return since ? *since : sim::Time{};
}

void FaultInjector::apply_rect_override(const FaultEvent& e, double loss) {
  for (const NodeId id : medium_.attached_ids()) {
    const auto pos = medium_.position(id);
    if (pos.x >= e.x0 && pos.x <= e.x1 && pos.y >= e.y0 && pos.y <= e.y1)
      medium_.set_loss_override(id, loss);
  }
}

void FaultInjector::execute(const FaultEvent& e) {
  obs::hit(obs::Hot::kFaultEvents);
  obs::instant(obs::SpanName::kFaultEvent, e.at, e.node.value());
  switch (e.kind) {
    case FaultKind::kCrash:
      // Stop the daemon first (it logs daemon_stop and cancels its timers
      // while the radio is still nominally on), then kill the radio.
      if (ops_.crash) ops_.crash(e.node);
      medium_.set_up(e.node, false);
      // A node already down keeps the instant it first went down.
      if (!is_down(e.node)) sim::slab_entry(down_since_, e.node) = e.at;
      last_disruption_ = e.at;
      break;
    case FaultKind::kRestart:
      medium_.set_up(e.node, true);
      if (ops_.restart) ops_.restart(e.node);
      sim::slab_erase(down_since_, e.node);
      last_heal_ = e.at;
      break;
    case FaultKind::kRestartAmnesia:
      medium_.set_up(e.node, true);
      if (ops_.restart_amnesia) ops_.restart_amnesia(e.node);
      sim::slab_erase(down_since_, e.node);
      last_heal_ = e.at;
      break;
    case FaultKind::kBrownout:
      apply_rect_override(e, e.loss);
      last_disruption_ = e.at;
      break;
    case FaultKind::kBrownoutClear:
      apply_rect_override(e, -1.0);
      last_heal_ = e.at;
      break;
    case FaultKind::kPartition:
      for (const NodeId id : medium_.attached_ids())
        medium_.set_partition(id,
                              medium_.position(id).x <= e.cut_x ? 1u : 2u);
      last_disruption_ = e.at;
      break;
    case FaultKind::kHeal:
      for (const NodeId id : medium_.attached_ids())
        medium_.set_partition(id, 0u);
      last_heal_ = e.at;
      break;
  }
}

}  // namespace manet::faults
