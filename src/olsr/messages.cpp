#include "olsr/messages.hpp"

#include <algorithm>

namespace manet::olsr {

std::vector<NodeId> HelloMessage::symmetric_neighbors() const {
  std::vector<NodeId> out, ascending;
  symmetric_neighbors(out, ascending);
  return out;
}

void HelloMessage::symmetric_neighbors(std::vector<NodeId>& in_order,
                                       std::vector<NodeId>& ascending) const {
  in_order.clear();
  for (const auto& [code, addrs] : link_groups) {
    const bool sym_link = link_type_of(code) == LinkType::kSym;
    const auto nt = neighbor_type_of(code);
    const bool sym_neigh =
        nt == NeighborType::kSymNeigh || nt == NeighborType::kMprNeigh;
    if (sym_link || sym_neigh)
      in_order.insert(in_order.end(), addrs.begin(), addrs.end());
  }
  ascending.assign(in_order.begin(), in_order.end());
  std::sort(ascending.begin(), ascending.end());
  const auto last = std::unique(ascending.begin(), ascending.end());
  if (last == ascending.end()) return;  // no address repeats
  ascending.erase(last, ascending.end());
  // Keep each address at its first occurrence.
  std::vector<bool> kept(ascending.size(), false);
  std::erase_if(in_order, [&](NodeId a) {
    const auto i = static_cast<std::size_t>(
        std::lower_bound(ascending.begin(), ascending.end(), a) -
        ascending.begin());
    if (kept[i]) return true;
    kept[i] = true;
    return false;
  });
}

HelloLists::HelloLists(const HelloMessage& hello) {
  hello.symmetric_neighbors(sym, sym_sorted);
  for (const auto& [code, addrs] : hello.link_groups) {
    entries += addrs.size();
    if (link_type_of(code) == LinkType::kAsym &&
        neighbor_type_of(code) == NeighborType::kNotNeigh)
      asym.insert(asym.end(), addrs.begin(), addrs.end());
  }
}

std::vector<NodeId> HelloMessage::all_neighbors() const {
  std::vector<NodeId> out;
  for (const auto& [code, addrs] : link_groups)
    for (auto a : addrs)
      if (std::find(out.begin(), out.end(), a) == out.end()) out.push_back(a);
  return out;
}

}  // namespace manet::olsr
