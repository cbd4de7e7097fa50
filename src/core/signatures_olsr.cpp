#include "core/signatures_olsr.hpp"

#include <algorithm>

namespace manet::core {
namespace {

using logging::Event;
using logging::Key;
using logging::RecordView;

bool is_event(const RecordView& r, Event event) {
  return r.event() == event;
}

bool lists(std::span<const net::NodeId> list, net::NodeId node) {
  return std::ranges::find(list, node) != list.end();
}

}  // namespace

Signature link_spoofing_claim_signature(sim::Duration window) {
  Signature sig;
  sig.name = "link_spoofing_claim";
  sig.window = window;
  sig.steps.resize(2);
  // Step 0: HELLO from the suspect I (any hello_recv).
  sig.steps[0].pattern = {"hello_from_suspect", [](const RecordView& r) {
                            return is_event(r, Event::kHelloRecv);
                          }};
  // Step 1: HELLO from some X, unordered relative to step 0 (the paper's
  // |t'-t| < delta-t with no ordering), hence no `after` dependency.
  sig.steps[1].pattern = {"hello_from_subject", [](const RecordView& r) {
                            return is_event(r, Event::kHelloRecv);
                          }};
  sig.constraint = [](Signature::Matched recs) {
    if (!recs[0] || !recs[1]) return false;
    const auto& from_i = *recs[0];
    const auto& from_x = *recs[1];
    const auto i = from_i.id(Key::kFrom);
    const auto x = from_x.id(Key::kFrom);
    if (i == x) return false;
    // I claims X symmetric, but X's own HELLO does not list I.
    return lists(from_i.ids(Key::kSym), x) && !lists(from_x.ids(Key::kSym), i);
  };
  return sig;
}

Signature link_omission_signature(sim::Duration window) {
  Signature sig;
  sig.name = "link_omission";
  sig.window = window;
  sig.steps.resize(2);
  sig.steps[0].pattern = {"hello_from_claimer", [](const RecordView& r) {
                            return is_event(r, Event::kHelloRecv);
                          }};
  sig.steps[1].pattern = {"hello_from_omitter", [](const RecordView& r) {
                            return is_event(r, Event::kHelloRecv);
                          }};
  sig.constraint = [](Signature::Matched recs) {
    if (!recs[0] || !recs[1]) return false;
    const auto& from_x = *recs[0];  // X claims the link
    const auto& from_i = *recs[1];  // I omits it
    const auto x = from_x.id(Key::kFrom);
    const auto i = from_i.id(Key::kFrom);
    if (i == x) return false;
    // A true omission lists X neither as symmetric nor as a heard (ASYM)
    // link; transitional link-sensing states advertise X as ASYM and must
    // not fire the signature.
    return lists(from_x.ids(Key::kSym), i) &&
           !lists(from_i.ids(Key::kSym), x) &&
           !lists(from_i.ids(Key::kAsym), x);
  };
  return sig;
}

Signature storm_signature(std::size_t burst, sim::Duration window) {
  Signature sig;
  sig.name = "broadcast_storm";
  sig.window = window;
  sig.correlate_field = Key::kOrig;
  sig.steps.resize(burst);
  for (std::size_t i = 0; i < burst; ++i) {
    sig.steps[i].pattern = {"tc_recv", [](const RecordView& r) {
                              return is_event(r, Event::kTcRecv);
                            }};
    if (i > 0) sig.steps[i].after = {i - 1};
  }
  return sig;
}

Signature drop_signature(sim::Duration window) {
  Signature sig;
  sig.name = "mpr_drop";
  sig.window = window;
  sig.steps.resize(2);
  sig.steps[0].pattern = {"tc_sent", [](const RecordView& r) {
                            return is_event(r, Event::kTcSent);
                          }};
  sig.steps[1].pattern = {"mpr_fwd_timeout", [](const RecordView& r) {
                            return is_event(r, Event::kMprFwdTimeout);
                          }};
  sig.steps[1].after = {0};
  sig.constraint = [](Signature::Matched recs) {
    if (!recs[0] || !recs[1]) return false;
    return recs[0]->integer(Key::kSeq) == recs[1]->integer(Key::kSeq);
  };
  return sig;
}

Signature mpr_replacement_signature() {
  Signature sig;
  sig.name = "mpr_replacement";
  sig.window = sim::Duration::from_seconds(1.0);
  sig.steps.resize(1);
  // E1 fires whenever the MPR set gains a member: a strict replacement
  // (added+removed) or the degenerate case where a spoofing node forces
  // itself into an initial selection. Legitimate additions are filtered
  // downstream — the detector only investigates when the new MPR's
  // advertised links cannot be corroborated independently.
  sig.steps[0].pattern = {"mpr_changed", [](const RecordView& r) {
                            return is_event(r, Event::kMprChanged) &&
                                   !r.ids(Key::kAdded).empty();
                          }};
  return sig;
}

}  // namespace manet::core
