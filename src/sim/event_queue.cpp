#include "sim/event_queue.hpp"

#include <stdexcept>
#include <utility>

namespace manet::sim {

void EventQueue::require_no_window() const {
  if (window_open_)
    throw std::logic_error{"EventQueue operation while a Window is open"};
}

EventId EventQueue::schedule(Time at, Callback cb) {
  require_no_window();
  const std::uint64_t seq = next_seq_++;
  heap_.push(Entry{at, seq, std::move(cb)});
  return EventId{seq};
}

void EventQueue::cancel(EventId id) {
  require_no_window();
  heap_.cancel(id.id_);
}

bool EventQueue::empty() const {
  require_no_window();
  return heap_.empty();
}

Time EventQueue::next_time() const {
  require_no_window();
  return heap_.top().at;
}

Time EventQueue::run_next() {
  require_no_window();
  // Move the entry out before running: the callback may schedule/cancel.
  Entry e = heap_.pop();
  e.cb();
  return e.at;
}

}  // namespace manet::sim
