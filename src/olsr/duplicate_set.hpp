#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "net/node_id.hpp"
#include "sim/time.hpp"

namespace manet::olsr {

using net::NodeId;

/// Duplicate set (§3.4.1): remembers processed/forwarded messages so the
/// default forwarding algorithm floods each message at most once per node.
///
/// Each originator has one slot of live (seq, D_time, D_retransmitted)
/// tuples, oldest first. Ids below kDenseIds index their slot directly;
/// other ids find it through a hash map. A flood keeps a handful of live
/// seqs per originator (one TC per interval within the hold time), so a
/// lookup is one index plus a short scan.
///
/// Expiry is bounded by a time-ordered FIFO ring instead of a whole-table
/// scan. Every record() pushes a ring entry stamped with its expiry, so
/// expire() only pops the already-due prefix — entries refreshed since
/// their ring stamp are skipped lazily (the refresh pushed a later entry).
/// With the constant per-agent hold time the ring is exactly expiry-ordered
/// and the removal set matches a full scan entry for entry.
class DuplicateSet {
 public:
  /// One live tuple of an originator: D_seq_num, D_time, D_retransmitted.
  struct Tuple {
    sim::Time valid_until{};
    std::uint16_t seq = 0;
    bool forwarded = false;
  };

  /// The live tuple of (originator, seq), or nullptr. The pointer stays
  /// valid until the next record(), expire() or restore().
  Tuple* find(NodeId originator, std::uint16_t seq);
  const Tuple* find(NodeId originator, std::uint16_t seq) const;

  /// True if (originator, seq) was already processed.
  bool seen(NodeId originator, std::uint16_t seq) const {
    return find(originator, seq) != nullptr;
  }
  /// True if it was already retransmitted by this node.
  bool forwarded(NodeId originator, std::uint16_t seq) const {
    const auto* t = find(originator, seq);
    return t != nullptr && t->forwarded;
  }

  /// Records a processed message: D_time becomes now + hold and
  /// `forwarded` is ORed into D_retransmitted. `held` is find()'s answer
  /// for the same key (nullptr inserts a new tuple), so a caller that
  /// already looked the message up pays no second lookup.
  void record(sim::Time now, NodeId originator, std::uint16_t seq,
              bool forwarded, sim::Duration hold, Tuple* held);
  void record(sim::Time now, NodeId originator, std::uint16_t seq,
              bool forwarded, sim::Duration hold) {
    record(now, originator, seq, forwarded, hold, find(originator, seq));
  }

  void expire(sim::Time now);
  std::size_t size() const { return size_; }

  /// One held message as the checkpoint stores it.
  struct Entry {
    NodeId originator;
    std::uint16_t seq = 0;
    sim::Time valid_until{};
    bool forwarded = false;
  };
  /// One FIFO expiry-ring stamp (may be stale if the entry was refreshed).
  struct RingSlot {
    NodeId originator;
    std::uint16_t seq = 0;
    sim::Time expiry{};
  };

  /// Checkpoint surface: the live tuples sorted by (originator, seq), and
  /// the expiry ring verbatim, so post-restore expire() pops the same
  /// prefix the uninterrupted run would. restore() takes the same shapes.
  std::vector<Entry> entries() const;
  const std::deque<RingSlot>& ring() const { return ring_; }
  void restore(const std::vector<Entry>& entries, std::deque<RingSlot> ring);

 private:
  /// Originator ids below this index their slot directly.
  static constexpr std::uint32_t kDenseIds = 4096;
  using Slot = std::vector<Tuple>;
  /// The originator's slot, or nullptr when it has none.
  Slot* slot_of(NodeId originator);
  Slot& slot_or_insert(NodeId originator);

  std::vector<Slot> dense_;                        // by id, ids < kDenseIds
  std::unordered_map<std::uint32_t, Slot> sparse_;  // every other id
  std::size_t size_ = 0;
  std::deque<RingSlot> ring_;  // FIFO, expiry-ordered for constant holds
};

}  // namespace manet::olsr
