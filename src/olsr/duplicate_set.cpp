#include "olsr/duplicate_set.hpp"

#include <algorithm>
#include <utility>

namespace manet::olsr {

const DuplicateSet::Tuple* DuplicateSet::find(NodeId originator,
                                              std::uint16_t seq) const {
  const auto& slot = slots_.get(originator);
  // Newest first: re-heard copies of a flood are of its latest messages.
  for (auto it = slot.rbegin(); it != slot.rend(); ++it)
    if (it->seq == seq) return &*it;
  return nullptr;
}

DuplicateSet::Tuple* DuplicateSet::find(NodeId originator, std::uint16_t seq) {
  return const_cast<Tuple*>(std::as_const(*this).find(originator, seq));
}

void DuplicateSet::record(sim::Time now, NodeId originator, std::uint16_t seq,
                          bool forwarded, sim::Duration hold, Tuple* held) {
  const sim::Time until = now + hold;
  if (held != nullptr) {
    held->valid_until = until;
    held->forwarded = held->forwarded || forwarded;
  } else {
    slots_[originator].push_back(Tuple{until, seq, forwarded});
    ++size_;
  }
  ring_.push_back(RingSlot{originator, seq, until});
}

void DuplicateSet::expire(sim::Time now) {
  while (!ring_.empty() && ring_.front().expiry <= now) {
    const auto stamp = ring_.front();
    ring_.pop_front();
    auto& slot = slots_[stamp.originator];
    const auto it = std::ranges::find(slot, stamp.seq, &Tuple::seq);
    // Absent: already removed via an earlier ring slot. Refreshed since
    // this slot was pushed: the refresh's own ring slot will retire it.
    if (it == slot.end() || it->valid_until > now) continue;
    slot.erase(it);
    --size_;
  }
}

std::vector<DuplicateSet::Entry> DuplicateSet::entries() const {
  std::vector<Entry> out;
  out.reserve(size_);
  slots_.for_each([&out](NodeId id, const std::vector<Tuple>& slot) {
    for (const auto& t : slot)
      out.push_back(Entry{id, t.seq, t.valid_until, t.forwarded});
  });
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    return a.originator != b.originator ? a.originator < b.originator
                                        : a.seq < b.seq;
  });
  return out;
}

void DuplicateSet::restore(const std::vector<Entry>& entries,
                           std::deque<RingSlot> ring) {
  *this = DuplicateSet{};
  for (const auto& e : entries)
    slots_[e.originator].push_back(Tuple{e.valid_until, e.seq, e.forwarded});
  size_ = entries.size();
  ring_ = std::move(ring);
}

}  // namespace manet::olsr
