#include "core/signatures_forwarding.hpp"

#include <algorithm>

namespace manet::core {
namespace {

bool contains(const std::vector<NodeId>& sorted, NodeId id) {
  return std::binary_search(sorted.begin(), sorted.end(), id);
}

void insert_sorted(std::vector<NodeId>& sorted, NodeId id) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), id);
  if (it == sorted.end() || *it != id) sorted.insert(it, id);
}

}  // namespace

void ForwardingAuditor::ingest(const logging::RecordView& record) {
  using logging::Event;
  using logging::Key;
  if (record.event() == Event::kHelloRecv) {
    // WILL_ALWAYS advertisement (§18.8 constant 7) marks the neighbor
    // auditable: it is selected MPR unconditionally, so every fresh flood
    // it hears obliges a re-broadcast.
    const auto from = record.id(Key::kFrom);
    if (record.integer(Key::kWill) == 7)
      always_.insert(from);
    else
      always_.erase(from);
  } else if (record.event() == Event::kMprChanged) {
    const auto mprs = record.ids(Key::kMprs);
    current_mprs_ = {mprs.begin(), mprs.end()};
  } else if (record.event() == Event::kTcRecv) {
    const auto orig = record.id(Key::kOrig);
    const auto via = record.id(Key::kVia);
    const auto seq = record.integer(Key::kSeq);
    // First hearing of this flood opens a pending entry; any hearing
    // credits the relaying transmitter.
    bool known = false;
    for (const auto& p : pending_)
      if (p.orig == orig && p.seq == seq) {
        known = true;
        break;
      }
    if (!known) {
      PendingFlood flood;
      flood.orig = orig;
      flood.seq = seq;
      flood.first_heard = record.time;
      for (auto mpr : current_mprs_)
        // The audited set is frozen at first hearing so a later MPR-set
        // change cannot shift blame mid-flood; the originator is exempt
        // (its own emission is not a forward).
        if (mpr != orig && always_.contains(mpr)) flood.audited.push_back(mpr);
      pending_.push_back(std::move(flood));
    }
    if (via != orig) credit(orig, seq, via);
  } else if (record.event() == Event::kFwdEcho) {
    // Direct overhear of a neighbor re-broadcasting a third-party flood
    // (olsr/agent logs these when Config::log_fwd_echo is set).
    credit(record.id(Key::kOrig), record.integer(Key::kSeq),
           record.id(Key::kBy));
  }
}

void ForwardingAuditor::credit(NodeId orig, std::int64_t seq, NodeId by) {
  for (auto& p : pending_)
    if (p.orig == orig && p.seq == seq) {
      if (contains(p.audited, by)) insert_sorted(p.credited, by);
      return;
    }
}

std::vector<ForwardAudit> ForwardingAuditor::close_window(sim::Time now) {
  // Close every pending flood whose timeout has passed into the window
  // counters (pending_ is in first-heard order, so the prefix suffices).
  while (!pending_.empty() &&
         pending_.front().first_heard + config_.flood_timeout <= now) {
    const auto& flood = pending_.front();
    for (auto mpr : flood.audited) {
      auto& [expected, forwarded] = window_[mpr];
      ++expected;
      if (contains(flood.credited, mpr)) ++forwarded;
    }
    pending_.pop_front();
  }

  // Reset the window; std::map iteration keeps the output MPR-sorted,
  // which the determinism suites rely on.
  std::vector<ForwardAudit> tallies;
  tallies.reserve(window_.size());
  for (const auto& [mpr, counters] : window_)
    tallies.push_back(ForwardAudit{mpr, counters.first, counters.second});
  window_.clear();
  return tallies;
}

ForwardingAuditor::Persisted ForwardingAuditor::persist() const {
  Persisted p;
  p.always = {always_.begin(), always_.end()};
  p.current_mprs = {current_mprs_.begin(), current_mprs_.end()};
  p.pending = {pending_.begin(), pending_.end()};
  p.window.reserve(window_.size());
  for (const auto& [mpr, counters] : window_)
    p.window.push_back(ForwardAudit{mpr, counters.first, counters.second});
  return p;
}

void ForwardingAuditor::restore(const Persisted& p) {
  always_ = {p.always.begin(), p.always.end()};
  current_mprs_ = {p.current_mprs.begin(), p.current_mprs.end()};
  pending_ = {p.pending.begin(), p.pending.end()};
  window_.clear();
  for (const auto& audit : p.window)
    window_[audit.mpr] = {audit.expected, audit.forwarded};
}

}  // namespace manet::core
