#pragma once

#include "net/node_id.hpp"
#include "sim/engine.hpp"

namespace manet::net {

/// Shard-awareness hook the psim parallel engine installs into a shared
/// Medium (Medium::set_shard_router). While a sharded run is executing,
/// every Medium call happens inside some shard's event (or inside
/// psim::Engine::run_as), and the router tells the Medium which execution
/// context that is:
///
/// - `current_engine()` is the `sim::Engine` of the shard running the
///   current event — the clock for packet timestamps and the per-node RNG
///   stream for loss/jitter draws.
/// - `schedule_delivery` replaces `Simulator::schedule_at` for frame
///   arrivals: a receiver on the executing shard goes into that shard's
///   queue; a remote receiver goes into the destination shard's mailbox,
///   drained in deterministic (time, origin node, origin seq) order at the
///   next window barrier. Either way the event executes in the receiver's
///   node context.
/// - `current_shard()`/`shard_count()` index the Medium's per-shard stat
///   blocks and receiver snapshot caches, so worker threads never share
///   mutable state.
///
/// With no router installed (the default) the Medium behaves exactly as the
/// sequential single-threaded implementation always has, draw for draw.
class ShardRouter {
 public:
  virtual ~ShardRouter() = default;

  /// Engine (clock + RNG context) of the shard executing the current event.
  virtual sim::Engine& current_engine() = 0;

  /// Index of the executing shard, for per-shard Medium slots.
  virtual unsigned current_shard() const = 0;

  /// Total number of shards (sizes the Medium's per-shard slots).
  virtual unsigned shard_count() const = 0;

  /// True when `receiver` lives on the executing shard (its delivery can
  /// share the sender's payload refcount; remote receivers get a copy).
  virtual bool is_local(NodeId receiver) const = 0;

  /// Schedules a frame arrival in the receiver's node context, routing
  /// cross-shard arrivals through the barrier mailboxes.
  virtual void schedule_delivery(NodeId receiver, sim::Time at,
                                 sim::EventQueue::Callback cb) = 0;
};

}  // namespace manet::net
