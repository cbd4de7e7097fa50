#include "olsr/mpr_selection.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace manet::olsr {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

// The set bits of `x`. On the baseline x86-64 target, which has no popcount
// instruction, std::popcount is a library call; compilers turn this form
// into the instruction wherever the target has one.
std::size_t bit_count(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return static_cast<std::size_t>((x * 0x0101010101010101ull) >> 56);
}

// Index of `via`'s row in `reach`, or kNone.
std::size_t row_of(std::span<const ReachRow> reach, NodeId via) {
  auto it = std::lower_bound(
      reach.begin(), reach.end(), via,
      [](const auto& p, NodeId id) { return p.first < id; });
  return (it != reach.end() && it->first == via)
             ? static_cast<std::size_t>(it - reach.begin())
             : kNone;
}

/// This run's id -> number table in `s.slots`: linear probing from a
/// Fibonacci hash of the id, which spreads runs of consecutive ids.
class Numbering {
 public:
  explicit Numbering(MprScratch& s) : s_{s}, run_{++s.run} {
    s_.two_hops.clear();
    if (s_.slots.empty()) s_.slots.resize(64);
    resized();
  }

  /// The number of `id`, the next one if this run has not seen it.
  std::uint32_t operator()(NodeId id) {
    auto i = home(id);
    for (; slots_[i].run == run_; i = (i + 1) & mask_)
      if (slots_[i].id == id) return slots_[i].number;
    const auto number = static_cast<std::uint32_t>(s_.two_hops.size());
    s_.two_hops.push_back(id);
    if (2 * s_.two_hops.size() <= s_.slots.size()) {
      slots_[i] = {run_, id, number};
      return number;
    }
    // Keep the table at most half full: double it and re-enter this run's
    // ids, this one with them.
    s_.slots.assign(2 * s_.slots.size(), MprScratch::Slot{});
    resized();
    for (std::uint32_t k = 0; k < s_.two_hops.size(); ++k) {
      auto j = home(s_.two_hops[k]);
      while (slots_[j].run == run_) j = (j + 1) & mask_;
      slots_[j] = {run_, s_.two_hops[k], k};
    }
    return number;
  }

 private:
  std::size_t home(NodeId id) const {
    return static_cast<std::size_t>(
        (std::uint64_t{id.value()} * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  void resized() {
    slots_ = s_.slots.data();
    mask_ = s_.slots.size() - 1;
    shift_ = 64 - std::countr_zero(s_.slots.size());
  }

  MprScratch& s_;
  const std::uint64_t run_;
  MprScratch::Slot* slots_ = nullptr;
  std::size_t mask_ = 0;
  int shift_ = 0;
};

}  // namespace

void select_mprs(const MprInputs& in, MprScratch& s,
                 std::vector<NodeId>& out) {
  select_mprs(in.neighbors, in.reach, s, out);
}

void select_mprs(std::span<const MprNeighbor> neighbors,
                 std::span<const ReachRow> reach, MprScratch& s,
                 std::vector<NodeId>& out) {
  const std::size_t rows = reach.size();

  // Each row's willingness and the WILL_ALWAYS members without a row, in
  // one walk of the two ascending lists. Step 1 chooses the WILL_ALWAYS
  // rows.
  s.will.resize(rows);
  s.chosen.resize(rows);
  s.always.clear();
  auto nb = neighbors.begin();
  for (std::size_t r = 0; r < rows; ++r) {
    for (; nb != neighbors.end() && nb->first < reach[r].first; ++nb)
      if (nb->second == Willingness::kAlways) s.always.push_back(nb->first);
    const bool member = nb != neighbors.end() && nb->first == reach[r].first;
    s.will[r] = member ? (nb++)->second : Willingness::kDefault;
    s.chosen[r] = s.will[r] == Willingness::kAlways;
  }
  for (; nb != neighbors.end(); ++nb)
    if (nb->second == Willingness::kAlways) s.always.push_back(nb->first);

  // Number the 2-hop nodes, then set each row's bits and fold the rows
  // into the masks of nodes seen once and seen twice or more.
  std::size_t cells = 0;
  for (const auto& [via, row] : reach) cells += row.size();
  s.cells.resize(cells);
  Numbering number{s};
  auto* cell = s.cells.data();
  for (const auto& [via, row] : reach)
    for (const auto th : row) *cell++ = number(th);
  const std::size_t words = (s.two_hops.size() + 63) / 64;
  s.bits.assign(rows * words, 0);
  s.masks.assign(3 * words, 0);
  auto* const once = s.masks.data();
  auto* const twice = once + words;
  auto* const uncovered = twice + words;
  auto bits = [&](std::size_t r) { return s.bits.data() + r * words; };
  cell = s.cells.data();
  for (std::size_t r = 0; r < rows; ++r) {
    auto* const b = bits(r);
    for (auto k = reach[r].second.size(); k > 0; --k, ++cell)
      b[*cell / 64] |= std::uint64_t{1} << (*cell % 64);
    for (std::size_t w = 0; w < words; ++w) {
      twice[w] |= once[w] & b[w];
      once[w] |= b[w];
    }
  }

  // Step 2: a row holding a node seen once is its sole provider.
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t w = 0; w < words; ++w)
      if ((bits(r)[w] & once[w] & ~twice[w]) != 0) {
        s.chosen[r] = 1;
        break;
      }

  std::copy(once, once + words, uncovered);
  for (std::size_t r = 0; r < rows; ++r)
    if (s.chosen[r])
      for (std::size_t w = 0; w < words; ++w) uncovered[w] &= ~bits(r)[w];
  std::size_t left = 0;
  for (std::size_t w = 0; w < words; ++w)
    left += bit_count(uncovered[w]);

  // Step 3: greedy by (gain, willingness, degree). Rows ascend by via, so
  // keeping the first of equal keys breaks the last tie by lower id. While
  // a node is uncovered, the open row holding it has a gain, so the best
  // row always does. Gains only fall, so a row's last gain bounds its gain
  // now, and a row whose bound is below the best gain so far is passed
  // over unread.
  auto tie_key = [&](std::size_t r) {
    return std::pair{s.will[r], reach[r].second.size()};
  };
  s.bound.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) s.bound[r] = reach[r].second.size();
  while (left > 0) {
    std::size_t best = kNone;
    std::size_t best_gain = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      if (s.chosen[r] || (best != kNone && s.bound[r] < best_gain)) continue;
      std::size_t gain = 0;
      for (std::size_t w = 0; w < words; ++w)
        gain += bit_count(bits(r)[w] & uncovered[w]);
      s.bound[r] = gain;
      if (best == kNone || gain > best_gain ||
          (gain == best_gain && tie_key(r) > tie_key(best))) {
        best = r;
        best_gain = gain;
      }
    }
    if (best == kNone) break;  // every row is chosen
    s.chosen[best] = 1;
    for (std::size_t w = 0; w < words; ++w) uncovered[w] &= ~bits(best)[w];
    left -= best_gain;
  }

  // The chosen vias and the row-less WILL_ALWAYS members, both ascending.
  out.clear();
  auto a = s.always.begin();
  for (std::size_t r = 0; r < rows; ++r) {
    if (!s.chosen[r]) continue;
    for (; a != s.always.end() && *a < reach[r].first; ++a) out.push_back(*a);
    out.push_back(reach[r].first);
  }
  out.insert(out.end(), a, s.always.end());
}

std::vector<NodeId> select_mprs(const MprInputs& in) {
  MprScratch scratch;
  std::vector<NodeId> out;
  select_mprs(in, scratch, out);
  return out;
}

bool covers_all_two_hops(const MprInputs& inputs,
                         const std::vector<NodeId>& mprs) {
  std::vector<NodeId> covered;
  for (auto m : mprs) {
    const auto r = row_of(inputs.reach, m);
    if (r == kNone) continue;
    covered.insert(covered.end(), inputs.reach[r].second.begin(),
                   inputs.reach[r].second.end());
  }
  std::sort(covered.begin(), covered.end());
  covered.erase(std::unique(covered.begin(), covered.end()), covered.end());
  return std::all_of(
      inputs.reach.begin(), inputs.reach.end(), [&](const auto& row) {
        return std::includes(covered.begin(), covered.end(),
                             row.second.begin(), row.second.end());
      });
}

}  // namespace manet::olsr
