#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "net/node_id.hpp"

namespace manet::net {

/// Ids below this index an IdMap's vector. Every id the simulator assigns
/// is one; a replayed log or a forged packet may carry any other.
inline constexpr std::uint32_t kDenseIds = 4096;

/// Per-node state keyed by id. Ids below kDenseIds index a vector: a
/// lookup is one bounds check and one index. Any other id goes through one
/// ordered map, so a lookup costs O(log n) on any set of ids. An id that
/// was never entered reads the absent value fixed at construction.
template <class V>
class IdMap {
 public:
  /// `absent` is what an id never entered reads; V{} by default.
  IdMap() = default;
  explicit IdMap(V absent) : absent_{std::move(absent)} {}

  /// The value of `id`; the absent value when `id` was never entered.
  const V& get(NodeId id) const {
    const auto v = id.value();
    if (v < dense_.size()) return dense_[v];
    return v < kDenseIds ? absent_ : far_get(id);
  }
  /// The value of `id` for writing; a new id enters with the absent value.
  V& operator[](NodeId id) {
    const auto v = id.value();
    return v < dense_.size() ? dense_[v] : enter(id);
  }
  /// Sets `id` back to the absent value.
  void erase(NodeId id) {
    if (id.value() < dense_.size())
      dense_[id.value()] = absent_;
    else
      far_.erase(id);
  }
  /// Sets every id back to the absent value.
  void clear() {
    dense_.clear();
    far_.clear();
  }
  /// Calls f(id, value) for every id whose value is not the absent value,
  /// ascending by id.
  template <class F>
  void for_each(F&& f) const {
    for (std::uint32_t v = 0; v < dense_.size(); ++v)
      if (dense_[v] != absent_) f(NodeId{v}, dense_[v]);
    for (const auto& [id, value] : far_)
      if (value != absent_) f(id, value);
  }

 private:
  const V& far_get(NodeId id) const {
    const auto it = far_.find(id);
    return it == far_.end() ? absent_ : it->second;
  }
  V& enter(NodeId id) {
    const auto v = id.value();
    if (v >= kDenseIds) return far_.try_emplace(id, absent_).first->second;
    dense_.resize(v + 1, absent_);
    return dense_[v];
  }

  V absent_{};
  std::vector<V> dense_;     // by id, ids below kDenseIds
  std::map<NodeId, V> far_;  // every other id
};

}  // namespace manet::net
