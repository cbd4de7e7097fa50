#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "faults/fault_plan.hpp"
#include "net/medium.hpp"
#include "sim/engine.hpp"
#include "sim/slab.hpp"

namespace manet::faults {

/// Replays a FaultPlan through the engine's event queue, one pending event
/// at a time (the cursor pattern): executing event k schedules event k+1,
/// so at any instant exactly one injector event is pending — trivial to
/// checkpoint and to re-arm without RNG draws.
///
/// The injector drives the Medium directly (set_up, loss overrides,
/// partitions) and delegates daemon lifecycle to caller-supplied NodeOps so
/// it stays ignorant of the scenario layer. It also keeps the down/heal
/// timeline the degradation metrics and the invariant checker read.
class FaultInjector {
 public:
  /// Daemon lifecycle callbacks, invoked in event context. `crash` must
  /// stop the node's daemon; `restart` must start it again with state
  /// intact; `restart_amnesia` must reset its tables first (amnesia).
  struct NodeOps {
    std::function<void(NodeId)> crash;
    std::function<void(NodeId)> restart;
    std::function<void(NodeId)> restart_amnesia;
  };

  FaultInjector(sim::Engine& sim, net::Medium& medium, FaultPlan plan,
                NodeOps ops);

  const FaultPlan& plan() const { return plan_; }

  /// Schedules the next un-executed plan event (no-op when exhausted or
  /// already armed). Exactly one schedule_at, zero RNG draws — safe to call
  /// both at experiment start and as the checkpoint re-arm.
  void arm();

  /// Step mode (mutually exclusive with arm()): executes every plan event
  /// with `at <= now`, in plan order, directly from the caller's context.
  /// The sharded engine uses this between run_until windows — all worker
  /// lanes are quiescent at the barrier, so medium mutations are safe and
  /// the outcome is independent of the thread count.
  void run_until(sim::Time now);

  /// Index of the next un-executed plan event (the checkpoint cursor).
  std::size_t cursor() const { return cursor_; }
  /// Scheduled time / original event-queue seq of the pending cursor event
  /// (only meaningful while armed; seq orders the checkpoint re-arm).
  sim::Time pending_at() const { return pending_at_; }
  std::uint64_t pending_seq() const { return pending_seq_; }
  bool armed() const { return armed_; }

  /// Checkpoint restore: rewinds the cursor and the timeline state without
  /// touching the queue; call arm() afterwards (in re-arm order).
  /// `down_since` ascends strictly by node, as down_nodes() returns it.
  void restore(std::size_t cursor,
               std::vector<std::pair<NodeId, sim::Time>> down_since,
               sim::Time last_disruption, sim::Time last_heal);

  // --- timeline queries (metrics & invariant checker) ---
  bool is_down(NodeId node) const { return sim::slab_get(down_since_, node); }
  /// Instant the node went down; Time{} when it is up.
  sim::Time down_since(NodeId node) const;
  /// (node, down since) of every down node, ascending by node.
  const std::vector<std::pair<NodeId, sim::Time>>& down_nodes() const {
    return down_since_;
  }
  std::size_t down_count() const { return down_since_.size(); }
  /// Time of the last connectivity-degrading event (crash, brown-out,
  /// partition); Time{} when none has fired yet.
  sim::Time last_disruption() const { return last_disruption_; }
  /// Time of the last connectivity-restoring event (restart, clear, heal).
  sim::Time last_heal() const { return last_heal_; }

 private:
  void execute(const FaultEvent& e);
  void apply_rect_override(const FaultEvent& e, double loss);

  sim::Engine& sim_;
  net::Medium& medium_;
  FaultPlan plan_;
  NodeOps ops_;
  std::size_t cursor_ = 0;
  bool armed_ = false;
  sim::Time pending_at_{};
  std::uint64_t pending_seq_ = 0;
  std::vector<std::pair<NodeId, sim::Time>> down_since_;  ///< ascending
  sim::Time last_disruption_{};
  sim::Time last_heal_{};
};

}  // namespace manet::faults
