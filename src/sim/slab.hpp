#pragma once

#include <algorithm>
#include <tuple>
#include <utility>

namespace manet::sim {

// Keyed slabs: vectors of (key, value) pairs strictly ascending by key,
// which iterate in the order a std::map would.

/// lower_bound of `key`: its entry, or where that entry goes.
template <typename Slab, typename Key>
auto slab_find(Slab& slab, const Key& key) {
  return std::lower_bound(
      slab.begin(), slab.end(), key,
      [](const auto& entry, const Key& k) { return entry.first < k; });
}

/// The value of `key`; nullptr when the slab has no entry for it.
template <typename Slab, typename Key>
auto* slab_get(Slab& slab, const Key& key) {
  const auto it = slab_find(slab, key);
  return it == slab.end() || it->first != key ? nullptr : &it->second;
}

/// The value of `key`, inserted value-initialized when absent.
template <typename Slab, typename Key>
auto& slab_entry(Slab& slab, const Key& key) {
  auto it = slab_find(slab, key);
  if (it == slab.end() || it->first != key)
    it = slab.emplace(it, std::piecewise_construct, std::forward_as_tuple(key),
                      std::forward_as_tuple());
  return it->second;
}

/// Erases the entry of `key`, if there is one.
template <typename Slab, typename Key>
void slab_erase(Slab& slab, const Key& key) {
  const auto it = slab_find(slab, key);
  if (it != slab.end() && it->first == key) slab.erase(it);
}

}  // namespace manet::sim
