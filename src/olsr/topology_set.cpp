#include "olsr/topology_set.hpp"

#include <algorithm>

namespace manet::olsr {
namespace {

/// Sequence comparison with wraparound (§19).
bool seq_newer(std::uint16_t a, std::uint16_t b) {
  return (a > b && a - b <= 32768) || (b > a && b - a > 32768);
}

}  // namespace

std::pair<std::size_t, std::size_t> TopologySet::origin_range(
    NodeId originator) const {
  const auto lo = std::lower_bound(
      tuples_.begin(), tuples_.end(), originator,
      [](const TopologyTuple& t, NodeId o) { return t.last_hop < o; });
  auto hi = lo;
  while (hi != tuples_.end() && hi->last_hop == originator) ++hi;
  return {static_cast<std::size_t>(lo - tuples_.begin()),
          static_cast<std::size_t>(hi - tuples_.begin())};
}

bool TopologySet::on_tc(sim::Time now, NodeId originator, std::uint16_t ansn,
                        const std::vector<NodeId>& advertised,
                        sim::Duration vtime, EdgeDelta* delta) {
  auto ansn_it = std::lower_bound(
      latest_ansn_.begin(), latest_ansn_.end(), originator,
      [](const auto& p, NodeId o) { return p.first < o; });
  if (ansn_it != latest_ansn_.end() && ansn_it->first == originator) {
    if (seq_newer(ansn_it->second, ansn)) return false;
    ansn_it->second = ansn;
  } else {
    latest_ansn_.insert(ansn_it, {originator, ansn});
  }

  auto [lo, hi] = origin_range(originator);
  if (delta != nullptr) {
    scratch_before_.clear();
    for (std::size_t i = lo; i < hi; ++i)
      scratch_before_.push_back(tuples_[i].dest);
  }

  // §9.5: remove older tuples from this originator, then record new ones.
  const auto removed_begin = std::stable_partition(
      tuples_.begin() + lo, tuples_.begin() + hi,
      [ansn](const TopologyTuple& t) { return !seq_newer(ansn, t.ansn); });
  hi = static_cast<std::size_t>(
      tuples_.erase(removed_begin, tuples_.begin() + hi) - tuples_.begin());

  for (auto dest : advertised) {
    auto it = std::lower_bound(
        tuples_.begin() + lo, tuples_.begin() + hi, dest,
        [](const TopologyTuple& t, NodeId d) { return t.dest < d; });
    if (it != tuples_.begin() + hi && it->dest == dest) {
      it->ansn = ansn;
      it->valid_until = now + vtime;
    } else {
      tuples_.insert(it, TopologyTuple{dest, originator, ansn, now + vtime});
      ++hi;
    }
  }

  if (delta != nullptr) {
    scratch_after_.clear();
    for (std::size_t i = lo; i < hi; ++i)
      scratch_after_.push_back(tuples_[i].dest);
    delta->diff(originator, scratch_before_, scratch_after_);
  }
  return true;
}

bool TopologySet::expire(sim::Time now, EdgeDelta* delta) {
  const auto before = tuples_.size();
  std::erase_if(tuples_, [now, delta](const TopologyTuple& t) {
    if (t.valid_until > now) return false;
    if (delta != nullptr) delta->removed.emplace_back(t.last_hop, t.dest);
    return true;
  });
  return tuples_.size() != before;
}

std::vector<NodeId> TopologySet::advertised_by(NodeId last_hop) const {
  const auto [lo, hi] = origin_range(last_hop);
  std::vector<NodeId> out;
  out.reserve(hi - lo);
  for (std::size_t i = lo; i < hi; ++i) out.push_back(tuples_[i].dest);
  return out;
}

}  // namespace manet::olsr
