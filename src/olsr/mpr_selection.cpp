#include "olsr/mpr_selection.hpp"

#include <algorithm>
#include <tuple>

namespace manet::olsr {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Both inputs, read in place.
struct Inputs {
  std::span<const MprNeighbor> neighbors;
  std::span<const ReachRow> reach;
};

Willingness will_of(const Inputs& in, NodeId n) {
  auto it = std::lower_bound(
      in.neighbors.begin(), in.neighbors.end(), n,
      [](const auto& p, NodeId id) { return p.first < id; });
  return (it != in.neighbors.end() && it->first == n) ? it->second
                                                      : Willingness::kDefault;
}

// Index of `via`'s row in in.reach, or kNone.
std::size_t row_of(const Inputs& in, NodeId via) {
  auto it = std::lower_bound(
      in.reach.begin(), in.reach.end(), via,
      [](const auto& p, NodeId id) { return p.first < id; });
  return (it != in.reach.end() && it->first == via)
             ? static_cast<std::size_t>(it - in.reach.begin())
             : kNone;
}

void sorted_insert(std::vector<NodeId>& v, NodeId n) {
  auto it = std::lower_bound(v.begin(), v.end(), n);
  if (it == v.end() || *it != n) v.insert(it, n);
}

// Fills s.two_hops with the union of the rows, ascending, and s.cells /
// s.row_at with each row's entries as indices into it. The rows are
// already sorted, so the union is a bottom-up pairwise merge.
void index_two_hops(const Inputs& in, MprScratch& s) {
  auto& ids = s.two_hops;
  ids.clear();
  s.runs.assign(1, 0);
  for (const auto& [via, row] : in.reach) {
    ids.insert(ids.end(), row.begin(), row.end());
    s.runs.push_back(ids.size());
  }
  while (s.runs.size() > 2) {
    // Runs 2k and 2k+1 become run k. Bound k+1 is written only after the
    // bounds this pair and the earlier ones read.
    s.merged.resize(ids.size());
    auto out = s.merged.begin();
    std::size_t w = 1;
    for (std::size_t k = 0; k + 1 < s.runs.size(); k += 2) {
      const auto a = ids.begin() + static_cast<std::ptrdiff_t>(s.runs[k]);
      const auto b = ids.begin() + static_cast<std::ptrdiff_t>(s.runs[k + 1]);
      const auto c =
          k + 2 < s.runs.size()
              ? ids.begin() + static_cast<std::ptrdiff_t>(s.runs[k + 2])
              : b;
      out = std::set_union(a, b, b, c, out);
      s.runs[w++] = static_cast<std::size_t>(out - s.merged.begin());
    }
    s.merged.resize(s.runs[w - 1]);
    s.runs.resize(w);
    ids.swap(s.merged);
  }

  // Each row is an ascending subset of the union: one forward walk maps it.
  s.cells.clear();
  s.row_at.assign(1, 0);
  for (const auto& [via, row] : in.reach) {
    auto at = ids.begin();
    for (const auto th : row) {
      while (*at < th) ++at;
      s.cells.push_back(static_cast<std::uint32_t>(at - ids.begin()));
    }
    s.row_at.push_back(s.cells.size());
  }
}

}  // namespace

void select_mprs(const MprInputs& in, bool prune_redundant, MprScratch& s,
                 std::vector<NodeId>& out) {
  select_mprs(in.neighbors, in.reach, prune_redundant, s, out);
}

void select_mprs(std::span<const MprNeighbor> neighbors,
                 std::span<const ReachRow> reach, bool prune_redundant,
                 MprScratch& s, std::vector<NodeId>& out) {
  const Inputs in{neighbors, reach};
  out.clear();
  index_two_hops(in, s);
  const std::size_t rows = in.reach.size();
  s.providers.assign(s.two_hops.size(), 0);
  for (const auto c : s.cells) ++s.providers[c];
  s.uncovered.assign(s.two_hops.size(), 1);
  s.chosen.assign(rows, 0);
  std::size_t left = s.two_hops.size();

  auto cover = [&](std::size_t r) {
    if (s.chosen[r]) return;
    s.chosen[r] = 1;
    sorted_insert(out, in.reach[r].first);
    for (auto k = s.row_at[r]; k < s.row_at[r + 1]; ++k) {
      left -= s.uncovered[s.cells[k]];
      s.uncovered[s.cells[k]] = 0;
    }
  };

  // Step 1: WILL_ALWAYS neighbors.
  for (const auto& [n, will] : in.neighbors) {
    if (will != Willingness::kAlways) continue;
    const auto r = row_of(in, n);
    if (r == kNone) {
      sorted_insert(out, n);
    } else {
      cover(r);
    }
  }

  // Step 2: sole providers. A 2-hop node with exactly one reaching neighbor
  // forces that neighbor into the MPR set.
  for (std::size_t r = 0; r < rows; ++r)
    for (auto k = s.row_at[r]; k < s.row_at[r + 1]; ++k)
      if (s.providers[s.cells[k]] == 1) {
        cover(r);
        break;
      }

  // Step 3: greedy by (gain, willingness, degree). Rows ascend by via, so
  // keeping the first of equal keys breaks the last tie by lower id.
  while (left > 0) {
    std::size_t best = kNone;
    std::tuple<std::size_t, int, std::size_t> best_key{};
    for (std::size_t r = 0; r < rows; ++r) {
      if (s.chosen[r]) continue;
      std::size_t gain = 0;
      for (auto k = s.row_at[r]; k < s.row_at[r + 1]; ++k)
        gain += s.uncovered[s.cells[k]];
      if (gain == 0) continue;
      const std::tuple key{
          gain, static_cast<int>(will_of(in, in.reach[r].first)),
          s.row_at[r + 1] - s.row_at[r]};
      if (best == kNone || key > best_key) {
        best = r;
        best_key = key;
      }
    }
    if (best == kNone) break;  // defensive: an uncovered node's row is open
    cover(best);
  }

  if (prune_redundant) {
    // Drop MPRs (lowest willingness first) whose every 2-hop node another
    // MPR also covers. `providers` becomes the chosen rows' cover counts.
    std::fill(s.providers.begin(), s.providers.end(), 0);
    for (std::size_t r = 0; r < rows; ++r)
      if (s.chosen[r])
        for (auto k = s.row_at[r]; k < s.row_at[r + 1]; ++k)
          ++s.providers[s.cells[k]];
    std::vector<NodeId> candidates = out;
    std::sort(candidates.begin(), candidates.end(), [&](NodeId a, NodeId b) {
      const auto wa = will_of(in, a);
      const auto wb = will_of(in, b);
      if (wa != wb) return static_cast<int>(wa) < static_cast<int>(wb);
      return a < b;
    });
    for (auto n : candidates) {
      if (will_of(in, n) == Willingness::kAlways) continue;
      const auto r = row_of(in, n);
      if (r != kNone) {
        const auto first = s.cells.begin() +
                           static_cast<std::ptrdiff_t>(s.row_at[r]);
        const auto last = s.cells.begin() +
                          static_cast<std::ptrdiff_t>(s.row_at[r + 1]);
        if (!std::all_of(first, last,
                         [&](std::uint32_t c) { return s.providers[c] > 1; }))
          continue;
        for (auto k = first; k != last; ++k) --s.providers[*k];
      }
      out.erase(std::lower_bound(out.begin(), out.end(), n));
    }
  }
}

std::vector<NodeId> select_mprs(const MprInputs& in, bool prune_redundant) {
  MprScratch scratch;
  std::vector<NodeId> out;
  select_mprs(in, prune_redundant, scratch, out);
  return out;
}

bool covers_all_two_hops(const MprInputs& inputs,
                         const std::vector<NodeId>& mprs) {
  const Inputs in{inputs.neighbors, inputs.reach};
  std::vector<NodeId> covered;
  for (auto m : mprs) {
    const auto r = row_of(in, m);
    if (r == kNone) continue;
    covered.insert(covered.end(), in.reach[r].second.begin(),
                   in.reach[r].second.end());
  }
  std::sort(covered.begin(), covered.end());
  covered.erase(std::unique(covered.begin(), covered.end()), covered.end());
  return std::all_of(in.reach.begin(), in.reach.end(), [&](const auto& row) {
    return std::includes(covered.begin(), covered.end(), row.second.begin(),
                         row.second.end());
  });
}

}  // namespace manet::olsr
