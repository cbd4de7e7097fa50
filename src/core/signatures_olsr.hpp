#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "logging/record.hpp"
#include "net/node_id.hpp"
#include "sim/time.hpp"

namespace manet::core {

using net::NodeId;

/// What raised a scan round (§III). Detector::scan_once maps each kind to
/// one round shape.
enum class TriggerKind : std::uint8_t {
  /// Expressions 1-2: the suspect's HELLO claims the subject symmetric and
  /// the subject's own HELLO, heard within hello_window, does not list it.
  kClaim,
  /// Expression 3: the subject's HELLO claims the suspect symmetric and the
  /// suspect's HELLO lists the subject neither symmetric nor heard (ASYM).
  kOmission,
  /// Broadcast storm: storm_burst TC receptions from the suspect within
  /// storm_window.
  kStorm,
  /// E1: our MPR set gained the suspect; the detector checks the links the
  /// suspect advertises (find_disputed_links) and has no subject yet.
  kMprAdded,
  /// E2: the suspect, our MPR when we sent a TC, never re-forwarded it.
  kDrop,
  /// Forwarding audit: a WILL_ALWAYS MPR failed its audit window.
  kAuditFail,
};

/// One scan trigger. The subject is this node for kStorm, kDrop and
/// kAuditFail (the suspect misbehaves toward us) and unset for kMprAdded.
struct Trigger {
  TriggerKind kind;
  NodeId suspect;
  NodeId subject;

  bool operator==(const Trigger&) const = default;
};

/// The triggers a node reads off its own audit log growth, one switch per
/// record in log order: contradicting HELLO pairs (kClaim, kOmission),
/// storms and MPR additions. The E2 drop and forwarding-audit triggers do
/// not come from single records; the detector raises them from its pending
/// TCs and the auditor's failing tallies. This state is not checkpointed: a
/// restored detector starts with no open HELLO or storm history.
class LogTriggers {
 public:
  LogTriggers(NodeId self, sim::Duration hello_window, std::size_t storm_burst,
              sim::Duration storm_window)
      : self_{self},
        hello_window_{hello_window},
        storm_burst_{storm_burst},
        storm_window_{storm_window} {}

  /// Reads one record, later than every record read before, and appends
  /// the triggers it raises.
  void feed(const logging::RecordView& record, std::vector<Trigger>& out);

 private:
  void hello(const logging::RecordView& record, std::vector<Trigger>& out);
  void tc(const logging::RecordView& record, std::vector<Trigger>& out);

  /// A HELLO whose claim and omission slots a later HELLO may still close.
  /// It owns its sender's SYM list: a RecordView does not survive a page
  /// move of its store.
  struct OpenHello {
    sim::Time at;
    NodeId from;
    std::vector<NodeId> sym;
    bool claim_open = true;
    bool omission_open = true;
  };

  NodeId self_;
  sim::Duration hello_window_;
  std::size_t storm_burst_;
  sim::Duration storm_window_;
  std::vector<OpenHello> hellos_;  ///< in log order
  /// (time, originator) of every tc_recv within storm_window of the latest.
  std::deque<std::pair<sim::Time, NodeId>> tcs_;
};

}  // namespace manet::core
