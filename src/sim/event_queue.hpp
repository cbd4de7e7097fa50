#pragma once

#include <cstdint>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
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
/// their callback inline (sim::Callback small-buffer storage) in a manual
/// binary heap, so steady-state scheduling performs no per-event heap
/// allocation. Cancellation is O(1) lazy: cancelled ids go into a hash set
/// and matching entries are discarded when they surface at the heap top.
///
/// Determinism contract: events run in ascending (time, insertion sequence)
/// order. `schedule_window` assigns the same sequence numbers as the
/// equivalent series of `schedule` calls, so coalesced insertion never
/// changes the execution order of anything.
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
    /// queue's storage from `f`.
    template <typename F>
    void add(Time at, F&& f) {
      if (at < floor_)
        throw std::invalid_argument{"EventQueue::Window::add in the past"};
      q_->heap_.emplace_back(at, q_->next_seq_++, std::forward<F>(f));
      ++q_->live_;
    }

    /// Restores the heap invariant over the added entries. Idempotent;
    /// also run by the destructor.
    void close() {
      if (q_ == nullptr) return;
      for (std::size_t i = first_; i < q_->heap_.size(); ++i) q_->sift_up(i);
      q_->window_open_ = false;
      q_ = nullptr;
    }

   private:
    friend class EventQueue;
    Window(EventQueue* q, Time floor)
        : q_{q}, floor_{floor}, first_{q->heap_.size()} {
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

  std::size_t pending() const { return live_; }

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;
    Callback cb;
  };
  static bool earlier(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }
  // The heap mutators are const so that empty()/next_time() can discard
  // cancelled entries; heap_ and cancelled_ are mutable caches of the same
  // logical queue (as in the previous priority_queue implementation).
  void sift_up(std::size_t i) const;
  void sift_down(std::size_t i) const;
  void pop_top() const;
  void drop_cancelled() const;
  void require_no_window() const;

  mutable std::vector<Entry> heap_;
  mutable std::unordered_set<std::uint64_t> cancelled_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  bool window_open_ = false;
};

}  // namespace manet::sim
