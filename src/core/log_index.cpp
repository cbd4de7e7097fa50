#include "core/log_index.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "sim/slab.hpp"

namespace manet::core {

template <std::size_t K>
void LogIndex::Witnesses<K>::add(NodeId id) {
  if (count == K || std::find(ids.begin(), ids.begin() + count, id) !=
                        ids.begin() + count)
    return;
  ids[count++] = id;
}

template <std::size_t K>
bool LogIndex::Witnesses<K>::any_outside(NodeId a, NodeId b) const {
  return std::any_of(ids.begin(), ids.begin() + count,
                     [&](NodeId id) { return id != a && id != b; });
}

void LogIndex::sync() {
  const auto& log = *log_;
  // Retention dropped a record the slabs count: they no longer describe
  // the retained window, so re-read it from its start.
  if (oldest_ && log.base_index() > *oldest_) {
    reset();
    obs::hit(obs::Hot::kLogIndexRestarts);
  }
  next_ = std::max(next_, log.base_index());
  for (const auto& record : log.records_from(next_)) {
    if (index(record, next_)) {
      obs::hit(obs::Hot::kLogRecordsIndexed);
      if (!oldest_) oldest_ = next_;
    }
    ++next_;
  }
}

void LogIndex::reset() { *this = LogIndex{*log_}; }

bool LogIndex::index(const logging::RecordView& record, std::uint64_t at) {
  using logging::Event;
  if (record.event() == Event::kHelloRecv) {
    index_hello(record, at);
  } else if (record.event() == Event::kTcRecv) {
    index_tc(record);
  } else if (record.event() == Event::kOwnFwdHeard) {
    sim::slab_entry(echoes_, record.id(logging::Key::kBy)) = record.time;
  } else {
    return false;
  }
  return true;
}

void LogIndex::index_hello(const logging::RecordView& record,
                           std::uint64_t at) {
  const auto from = record.id(logging::Key::kFrom);
  const auto list = sym(record);
  const auto newest = sim::slab_find(hellos_, from);
  const bool known = newest != hellos_.end() && newest->first == from;
  // A HELLO repeating its originator's previous list names nobody new.
  if (!known || !std::ranges::equal(sym(record_at(newest->second)), list))
    for (const auto node : list) sim::slab_entry(listers_, node).add(from);
  if (known) {
    newest->second = at;
  } else {
    hellos_.insert(newest, {from, at});
  }
}

void LogIndex::index_tc(const logging::RecordView& record) {
  const auto orig = record.id(logging::Key::kOrig);
  const auto it = std::lower_bound(tc_origins_.begin(), tc_origins_.end(), orig);
  if (it == tc_origins_.end() || *it != orig) tc_origins_.insert(it, orig);
  for (const auto node : record.ids(logging::Key::kAdv))
    sim::slab_entry(advertisers_, node).add(orig);
}

std::optional<logging::RecordView> LogIndex::newest_hello(NodeId from) const {
  const auto* at = sim::slab_get(hellos_, from);
  return at ? std::optional{record_at(*at)} : std::nullopt;
}

bool LogIndex::lists(const logging::RecordView& hello, NodeId node) {
  const auto list = sym(hello);
  return std::ranges::find(list, node) != list.end();
}

bool LogIndex::hello_listed_by_other(NodeId node, NodeId a, NodeId b) const {
  const auto* by = sim::slab_get(listers_, node);
  return by && by->any_outside(a, b);
}

bool LogIndex::tc_originated(NodeId node) const {
  return std::binary_search(tc_origins_.begin(), tc_origins_.end(), node);
}

bool LogIndex::tc_advertised_by_other(NodeId node, NodeId except) const {
  const auto* by = sim::slab_get(advertisers_, node);
  return by && by->any_outside(except, except);
}

std::optional<sim::Time> LogIndex::newest_fwd_echo(NodeId mpr) const {
  const auto* at = sim::slab_get(echoes_, mpr);
  return at ? std::optional{*at} : std::nullopt;
}

}  // namespace manet::core
