#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "logging/log_store.hpp"

namespace manet::core {

using net::NodeId;

/// One node's index of the audit-log facts its investigation queries read
/// (InvestigationManager::honest_observation, Detector::believed_neighbors_of
/// and Detector::find_disputed_links). It reads the node's LogStore through
/// an absolute-index cursor and indexes each hello_recv, tc_recv and
/// own_fwd_heard record once, into sorted flat slabs, so a query costs a
/// few binary searches instead of a scan of the whole log.
///
/// Every answer equals a scan of the retained window: when retention drops
/// a record the index has counted, the index restarts from the oldest
/// retained record. It is never checkpointed; a restored log rebuilds it.
/// Like the scans it replaces, it relies on the log's time order (the
/// freshest HELLO of an originator is its newest).
class LogIndex {
 public:
  explicit LogIndex(const logging::LogStore& log) : log_{&log} {}

  /// Indexes the records appended since the previous call.
  void sync();

  /// Forgets everything; the next sync() re-reads the retained window.
  void reset();

  /// The newest retained HELLO heard from `from`, read in place (valid
  /// until the log's next append); nullopt when none.
  std::optional<logging::RecordView> newest_hello(NodeId from) const;

  /// Visits each originator's newest HELLO, ascending by originator, until
  /// `visit(from, hello)` returns false; returns false iff it stopped early.
  template <typename Visit>
  bool for_each_newest_hello(Visit&& visit) const {
    for (const auto& [from, at] : hellos_)
      if (!visit(from, record_at(at))) return false;
    return true;
  }

  /// The sym list of an indexed HELLO, read in place.
  static std::span<const NodeId> sym(const logging::RecordView& hello) {
    return hello.ids(logging::Key::kSym);
  }
  /// Whether an indexed HELLO's sym list names `node`.
  static bool lists(const logging::RecordView& hello, NodeId node);

  /// Whether a retained HELLO from an originator other than `a` and `b`
  /// lists `node` (any retained HELLO, not only the newest).
  bool hello_listed_by_other(NodeId node, NodeId a, NodeId b) const;
  /// Whether `node` originated a retained TC.
  bool tc_originated(NodeId node) const;
  /// Whether a retained TC from an originator other than `except`
  /// advertises `node`.
  bool tc_advertised_by_other(NodeId node, NodeId except) const;
  /// Time of the newest retained own_fwd_heard record naming `mpr`.
  std::optional<sim::Time> newest_fwd_echo(NodeId mpr) const;

 private:
  /// Up to K distinct ids, kept in first-seen order. K distinct witnesses
  /// are enough to answer "is there one outside a set of K-1 ids?".
  template <std::size_t K>
  struct Witnesses {
    std::uint8_t count = 0;
    std::array<NodeId, K> ids{};

    void add(NodeId id);
    bool any_outside(NodeId a, NodeId b) const;
  };

  logging::RecordView record_at(std::uint64_t at) const {
    return log_->at(static_cast<std::size_t>(at - log_->base_index()));
  }
  /// Returns whether the record was one of the indexed kinds.
  bool index(const logging::RecordView& record, std::uint64_t at);
  void index_hello(const logging::RecordView& record, std::uint64_t at);
  void index_tc(const logging::RecordView& record);

  const logging::LogStore* log_;
  std::uint64_t next_ = 0;  ///< absolute index of the next record to read
  /// Absolute index of the oldest record the slabs count.
  std::optional<std::uint64_t> oldest_;
  /// Newest HELLO of each originator: its absolute record index.
  std::vector<std::pair<NodeId, std::uint64_t>> hellos_;
  /// Originators of the retained HELLOs listing each node.
  std::vector<std::pair<NodeId, Witnesses<3>>> listers_;
  std::vector<NodeId> tc_origins_;  ///< originators of retained TCs
  /// Originators of the retained TCs advertising each node.
  std::vector<std::pair<NodeId, Witnesses<2>>> advertisers_;
  /// Newest own_fwd_heard time of each forwarder.
  std::vector<std::pair<NodeId, sim::Time>> echoes_;
};

}  // namespace manet::core
