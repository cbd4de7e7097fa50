#include "core/signatures_olsr.hpp"

#include <algorithm>

namespace manet::core {
namespace {

using logging::Event;
using logging::Key;
using logging::RecordView;

bool lists(std::span<const NodeId> list, NodeId node) {
  return std::ranges::find(list, node) != list.end();
}

}  // namespace

void LogTriggers::feed(const RecordView& record, std::vector<Trigger>& out) {
  switch (record.event()) {
    case Event::kHelloRecv:
      hello(record, out);
      break;
    case Event::kTcRecv:
      tc(record, out);
      break;
    case Event::kMprChanged:
      // E1 fires whenever the MPR set gains a member: a strict replacement
      // or a spoofer forcing itself into an initial selection. The detector
      // investigates only the added MPR's links it cannot corroborate.
      for (const auto added : record.ids(Key::kAdded))
        out.push_back({TriggerKind::kMprAdded, added, NodeId{}});
      break;
    default:
      break;
  }
}

void LogTriggers::hello(const RecordView& record, std::vector<Trigger>& out) {
  // The pair need not be ordered (the paper's |t' - t| < delta-t): each
  // HELLO opens two slots that any later HELLO within the window may close.
  std::erase_if(hellos_, [&](const OpenHello& h) {
    return record.time - h.at > hello_window_ ||
           (!h.claim_open && !h.omission_open);
  });
  const auto from = record.id(Key::kFrom);
  const auto sym = record.ids(Key::kSym);
  const auto asym = record.ids(Key::kAsym);
  for (auto& h : hellos_) {
    // h.from claims `from` symmetric, but `from` does not list h.from.
    if (h.from == from || !lists(h.sym, from) || lists(sym, h.from)) continue;
    if (h.claim_open) {
      out.push_back({TriggerKind::kClaim, h.from, from});
      h.claim_open = false;
    }
    // A true omission lists h.from not even as heard: link sensing in
    // transition advertises it ASYM and must not fire.
    if (h.omission_open && !lists(asym, h.from)) {
      out.push_back({TriggerKind::kOmission, from, h.from});
      h.omission_open = false;
    }
  }
  hellos_.push_back({record.time, from, {sym.begin(), sym.end()}});
}

void LogTriggers::tc(const RecordView& record, std::vector<Trigger>& out) {
  while (!tcs_.empty() && record.time - tcs_.front().first > storm_window_)
    tcs_.pop_front();
  const auto orig = record.id(Key::kOrig);
  // This reception completes a burst when the storm_burst - 1 receptions
  // from the same originator before it all lie within the window.
  const auto earlier = static_cast<std::size_t>(std::ranges::count(
      tcs_, orig, &std::pair<sim::Time, NodeId>::second));
  if (storm_burst_ > 0 && earlier + 1 >= storm_burst_)
    out.push_back({TriggerKind::kStorm, orig, self_});
  tcs_.emplace_back(record.time, orig);
}

}  // namespace manet::core
