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

void ForwardingAuditor::read(const logging::RecordView& record,
                             std::span<const NodeId> mprs) {
  using logging::Event;
  using logging::Key;
  if (record.event() == Event::kHelloRecv) {
    // WILL_ALWAYS advertisement (§18.8 constant 7) marks the neighbor
    // auditable: it is selected MPR unconditionally, so every fresh flood
    // it hears obliges a re-broadcast.
    const auto from = record.id(Key::kFrom);
    if (record.integer(Key::kWill) == 7)
      insert_sorted(always_, from);
    else
      std::erase(always_, from);
  } else if (record.event() == Event::kTcRecv) {
    const auto orig = record.id(Key::kOrig);
    const auto via = record.id(Key::kVia);
    const auto seq = record.integer(Key::kSeq);
    // First hearing of this flood opens a pending entry; any hearing
    // credits the relaying transmitter.
    if (std::ranges::none_of(pending_, [&](const PendingFlood& p) {
          return p.orig == orig && p.seq == seq;
        })) {
      PendingFlood flood{orig, seq, record.time, {}, {}};
      for (auto mpr : mprs)
        // The audited set is frozen at first hearing so a later MPR-set
        // change cannot shift blame mid-flood; the originator is exempt
        // (its own emission is not a forward).
        if (mpr != orig && contains(always_, mpr))
          flood.audited.push_back(mpr);
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

std::vector<ForwardAudit> ForwardingAuditor::close(sim::Time now) {
  // pending_ is in first-heard order, so the due floods are a prefix.
  std::vector<ForwardAudit> tallies;  // ascending by MPR
  while (!pending_.empty() &&
         pending_.front().first_heard + kFloodTimeout <= now) {
    const auto& flood = pending_.front();
    for (auto mpr : flood.audited) {
      auto it = std::ranges::lower_bound(tallies, mpr, {}, &ForwardAudit::mpr);
      if (it == tallies.end() || it->mpr != mpr)
        it = tallies.insert(it, ForwardAudit{mpr});
      ++it->expected;
      if (contains(flood.credited, mpr)) ++it->forwarded;
    }
    pending_.pop_front();
  }
  return tallies;
}

ForwardingAuditor::Persisted ForwardingAuditor::persist() const {
  return {always_, {pending_.begin(), pending_.end()}};
}

void ForwardingAuditor::restore(const Persisted& p) {
  always_ = p.always;
  pending_ = {p.pending.begin(), p.pending.end()};
}

}  // namespace manet::core
