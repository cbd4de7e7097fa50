#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

namespace manet::sim {

/// The binary min-heap behind both event queues (sim::EventQueue and
/// psim::ShardQueue); only the ordering key differs. `Order` supplies
/// `static bool earlier(const Entry&, const Entry&)` and
/// `static std::uint64_t id(const Entry&)`, the entry's cancellation id.
///
/// Cancellation is O(1) lazy: cancelled ids go into a hash set and
/// matching entries are discarded when they surface at the top. The
/// discarding mutators are const so that empty()/top() can run them;
/// heap_ and cancelled_ are mutable caches of the same logical queue.
template <typename Entry, typename Order> class LazyHeap {
 public:
  void push(Entry entry) {
    heap_.push_back(std::move(entry));
    sift_up(heap_.size() - 1);
    ++live_;
  }

  /// Constructs one entry in place at the back without restoring the heap
  /// invariant; sift_from() restores it for every entry appended since.
  template <typename... Args>
  void append(Args&&... args) {
    heap_.emplace_back(std::forward<Args>(args)...);
    ++live_;
  }
  /// Restores the heap invariant over the entries from index `first` on,
  /// in append order (the heap a push per entry would build).
  void sift_from(std::size_t first) {
    for (std::size_t i = first; i < heap_.size(); ++i) sift_up(i);
  }
  /// Stored entries, cancelled ones included: the index append() writes.
  std::size_t stored() const { return heap_.size(); }

  /// Id 0 is never issued and cancels nothing.
  void cancel(std::uint64_t id) {
    if (id == 0) return;
    if (cancelled_.insert(id).second && live_ > 0) --live_;
  }

  bool empty() const {
    drop_cancelled();
    return heap_.empty();
  }
  /// The earliest live entry; throws std::logic_error when empty().
  const Entry& top() const {
    require_live();
    return heap_.front();
  }
  /// Removes and returns the earliest live entry; throws like top().
  Entry pop() {
    require_live();
    Entry e = std::move(heap_.front());
    pop_top();
    if (live_ > 0) --live_;
    return e;
  }

  /// Scheduled entries not yet popped or cancelled.
  std::size_t live() const { return live_; }

 private:
  void sift_up(std::size_t i) const {
    // Fast path for the dominant case (timer rearms and frame deliveries
    // are scheduled in near-ascending time order): the new entry already
    // sits below its parent, so no entry moves at all.
    if (i == 0 || !Order::earlier(heap_[i], heap_[(i - 1) / 2])) return;
    Entry e = std::move(heap_[i]);
    do {
      const std::size_t parent = (i - 1) / 2;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    } while (i > 0 && Order::earlier(e, heap_[(i - 1) / 2]));
    heap_[i] = std::move(e);
  }

  /// Removes the root: its hole sinks to a leaf along the earlier child
  /// (one comparison a level), the last entry fills the hole and sifts up
  /// (it came from the bottom, so it rarely moves). Keys are unique, so
  /// the heap ends as a classic sift-down would leave it.
  void pop_top() const {
    const std::size_t n = heap_.size() - 1;  // entries once the root is gone
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n && Order::earlier(heap_[child + 1], heap_[child]))
        ++child;
      heap_[hole] = std::move(heap_[child]);
      hole = child;
    }
    if (hole != n) {
      heap_[hole] = std::move(heap_[n]);
      sift_up(hole);
    }
    heap_.pop_back();
  }

  void drop_cancelled() const {
    if (cancelled_.empty()) return;  // nothing to probe for
    while (!heap_.empty()) {
      auto it = cancelled_.find(Order::id(heap_.front()));
      if (it == cancelled_.end()) return;
      cancelled_.erase(it);
      pop_top();
    }
  }

  void require_live() const {
    drop_cancelled();
    if (heap_.empty()) throw std::logic_error{"event queue is empty"};
  }

  mutable std::vector<Entry> heap_;
  mutable std::unordered_set<std::uint64_t> cancelled_;
  std::size_t live_ = 0;
};

}  // namespace manet::sim
