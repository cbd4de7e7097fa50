#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "sim/callback.hpp"
#include "sim/lazy_heap.hpp"
#include "sim/time.hpp"

namespace manet::psim {
class ShardSim;  // mints EventIds for the sharded engine's per-shard queues
}  // namespace manet::psim

namespace manet::sim {

/// Handle that allows a scheduled event to be cancelled.
class EventId {
 public:
  constexpr EventId() = default;
  constexpr bool valid() const { return id_ != 0; }
  constexpr auto operator<=>(const EventId&) const = default;

  /// Underlying insertion sequence number (0 = invalid). Exposed for the
  /// checkpoint machinery, which sorts pending work by original
  /// (time, sequence) to re-arm it in the exact pre-snapshot order.
  constexpr std::uint64_t raw() const { return id_; }

 private:
  friend class EventQueue;
  friend class ::manet::psim::ShardSim;
  explicit constexpr EventId(std::uint64_t id) : id_{id} {}
  std::uint64_t id_ = 0;
};

/// Time-ordered queue of callbacks. Ties are broken by insertion order so a
/// run is deterministic regardless of the heap implementation. Entries hold
/// their callback inline (sim::Callback small-buffer storage) in a
/// sim::LazyHeap, so steady-state scheduling performs no per-event heap
/// allocation, and cancellation is O(1) lazy.
///
/// Determinism contract: events run in ascending (time, insertion sequence)
/// order. A Window assigns the same sequence numbers as the equivalent
/// series of `schedule` calls, so coalesced insertion never changes the
/// execution order of anything.
class EventQueue {
 public:
  using Callback = sim::Callback;

  EventId schedule(Time at, Callback cb);

  void cancel(EventId id);

  /// Coalesced-insertion window for a burst of events prepared together —
  /// the per-receiver deliveries of one broadcast. Each add()
  /// constructs its entry directly into heap storage (no intermediate
  /// buffer, no extra callback relocation) and entries are sifted into
  /// place when the window closes. Sequence numbers are assigned at add()
  /// time and sifting in add-order reproduces exactly the heap sequential
  /// schedule() calls would build, so a window is observationally identical
  /// to scheduling each event individually — same EventIds, same pop order.
  ///
  /// While a window is open the heap invariant is suspended: no other
  /// EventQueue operation (schedule, cancel, empty, next_time, run_next,
  /// open_window) may run until it closes — they throw std::logic_error
  /// so a violation fails loudly instead of silently reordering events.
  /// Events may not be added before the `floor` time the window was
  /// opened with (the simulator's now()).
  class Window {
   public:
    Window(Window&& other) noexcept
        : q_{other.q_}, floor_{other.floor_}, first_{other.first_} {
      other.q_ = nullptr;
    }
    Window(const Window&) = delete;
    Window& operator=(const Window&) = delete;
    Window& operator=(Window&&) = delete;
    ~Window() { close(); }

    /// Appends one event; the callback is constructed in place inside the
    /// queue's storage from `f`. Returns the id schedule() would have.
    template <typename F>
    EventId add(Time at, F&& f) {
      if (at < floor_)
        throw std::invalid_argument{"EventQueue::Window::add in the past"};
      const std::uint64_t seq = q_->next_seq_++;
      q_->heap_.append(at, seq, std::forward<F>(f));
      return EventId{seq};
    }

    /// Restores the heap invariant over the added entries. Idempotent;
    /// also run by the destructor.
    void close() {
      if (q_ == nullptr) return;
      q_->heap_.sift_from(first_);
      q_->window_open_ = false;
      q_ = nullptr;
    }

   private:
    friend class EventQueue;
    Window(EventQueue* q, Time floor)
        : q_{q}, floor_{floor}, first_{q->heap_.stored()} {
      q->window_open_ = true;
    }
    EventQueue* q_;
    Time floor_;
    std::size_t first_;
  };

  /// Opens a coalesced-insertion window; `floor` is the earliest admissible
  /// event time (callers pass the current simulation time). Windows do not
  /// nest.
  Window open_window(Time floor) {
    require_no_window();
    return Window{this, floor};
  }

  bool empty() const;
  Time next_time() const;

  /// Pops and runs the earliest event; returns its time.
  Time run_next();

  std::size_t pending() const { return heap_.live(); }

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;
    Callback cb;
  };
  struct Order {
    static bool earlier(const Entry& a, const Entry& b) {
      if (a.at != b.at) return a.at < b.at;
      return a.seq < b.seq;
    }
    static std::uint64_t id(const Entry& e) { return e.seq; }
  };
  void require_no_window() const;

  LazyHeap<Entry, Order> heap_;
  std::uint64_t next_seq_ = 1;
  bool window_open_ = false;
};

}  // namespace manet::sim
