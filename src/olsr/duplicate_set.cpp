#include "olsr/duplicate_set.hpp"

#include <algorithm>

namespace manet::olsr {

DuplicateSet::Slot* DuplicateSet::slot_of(NodeId originator) {
  const auto id = originator.value();
  if (id < kDenseIds) return id < dense_.size() ? &dense_[id] : nullptr;
  const auto it = sparse_.find(id);
  return it == sparse_.end() ? nullptr : &it->second;
}

DuplicateSet::Slot& DuplicateSet::slot_or_insert(NodeId originator) {
  const auto id = originator.value();
  if (id >= kDenseIds) return sparse_[id];
  if (id >= dense_.size()) dense_.resize(id + 1);
  return dense_[id];
}

DuplicateSet::Tuple* DuplicateSet::find(NodeId originator, std::uint16_t seq) {
  auto* slot = slot_of(originator);
  if (slot == nullptr) return nullptr;
  // Newest first: re-heard copies of a flood are of its latest messages.
  for (auto it = slot->rbegin(); it != slot->rend(); ++it)
    if (it->seq == seq) return &*it;
  return nullptr;
}

const DuplicateSet::Tuple* DuplicateSet::find(NodeId originator,
                                              std::uint16_t seq) const {
  return const_cast<DuplicateSet*>(this)->find(originator, seq);
}

void DuplicateSet::record(sim::Time now, NodeId originator, std::uint16_t seq,
                          bool forwarded, sim::Duration hold, Tuple* held) {
  const sim::Time until = now + hold;
  if (held != nullptr) {
    held->valid_until = until;
    held->forwarded = held->forwarded || forwarded;
  } else {
    slot_or_insert(originator).push_back(Tuple{until, seq, forwarded});
    ++size_;
  }
  ring_.push_back(RingSlot{originator, seq, until});
}

void DuplicateSet::expire(sim::Time now) {
  while (!ring_.empty() && ring_.front().expiry <= now) {
    const auto stamp = ring_.front();
    ring_.pop_front();
    auto* slot = slot_of(stamp.originator);
    if (slot == nullptr) continue;
    const auto it =
        std::find_if(slot->begin(), slot->end(),
                     [&stamp](const Tuple& t) { return t.seq == stamp.seq; });
    // Absent: already removed via an earlier ring slot. Refreshed since
    // this slot was pushed: the refresh's own ring slot will retire it.
    if (it == slot->end() || it->valid_until > now) continue;
    slot->erase(it);
    --size_;
  }
}

std::vector<DuplicateSet::Entry> DuplicateSet::entries() const {
  std::vector<Entry> out;
  out.reserve(size_);
  const auto add = [&out](std::uint32_t id, const Slot& slot) {
    for (const auto& t : slot)
      out.push_back(Entry{NodeId{id}, t.seq, t.valid_until, t.forwarded});
  };
  for (std::size_t id = 0; id < dense_.size(); ++id)
    add(static_cast<std::uint32_t>(id), dense_[id]);
  for (const auto& [id, slot] : sparse_) add(id, slot);
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
    slot_or_insert(e.originator)
        .push_back(Tuple{e.valid_until, e.seq, e.forwarded});
  size_ = entries.size();
  ring_ = std::move(ring);
}

}  // namespace manet::olsr
