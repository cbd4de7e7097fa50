#pragma once

#include <cstdint>
#include <utility>

#include "sim/callback.hpp"
#include "sim/lazy_heap.hpp"
#include "sim/time.hpp"

namespace manet::psim {

/// Time-ordered event queue of one shard lane, keyed globally instead of
/// locally: ties at equal time are broken by (origin node, origin
/// sequence), where the origin is the node whose processing created the
/// event (the node itself for timers, the sender for frame deliveries) and
/// the sequence is that node's private scheduling counter.
///
/// This is the load-bearing difference from sim::EventQueue, whose
/// insertion-order tie-break depends on which events share a queue — i.e.
/// on the shard count. A node's processing history is a deterministic
/// function of the scenario seed alone, so the (origin, seq) key is too,
/// and every shard lane pops the events of any one node in the same
/// relative order no matter how the arena was partitioned. Same-time events
/// of *different* nodes may interleave differently across partitions, but
/// node state is only coupled through lookahead-delayed deliveries, so
/// those interleavings are unobservable.
///
/// The heap and its O(1) lazy cancellation are sim::LazyHeap, as in
/// sim::EventQueue; only the key differs.
class ShardQueue {
 public:
  /// One pending event: the global ordering key, the node whose context
  /// executes the callback, and the lane-local cancellation id.
  struct Entry {
    sim::Time at;
    std::uint32_t origin_node = 0;
    std::uint64_t origin_seq = 0;
    std::uint32_t owner = 0;
    std::uint64_t id = 0;
    sim::Callback cb;
  };

  void push(Entry entry) { heap_.push(std::move(entry)); }
  void cancel(std::uint64_t id) { heap_.cancel(id); }

  bool empty() const { return heap_.empty(); }
  /// Both throw std::logic_error when empty().
  sim::Time next_time() const { return heap_.top().at; }
  Entry pop() { return heap_.pop(); }

  std::size_t pending() const { return heap_.live(); }

 private:
  struct Order {
    static bool earlier(const Entry& a, const Entry& b) {
      if (a.at != b.at) return a.at < b.at;
      if (a.origin_node != b.origin_node)
        return a.origin_node < b.origin_node;
      return a.origin_seq < b.origin_seq;
    }
    static std::uint64_t id(const Entry& e) { return e.id; }
  };

  sim::LazyHeap<Entry, Order> heap_;
};

}  // namespace manet::psim
