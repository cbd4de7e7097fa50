#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "logging/record.hpp"
#include "net/node_id.hpp"
#include "sim/time.hpp"

namespace manet::core {

using net::NodeId;

/// Forwarding-audit signature family (the Sen grayhole papers, arXiv
/// 1010.5176 / 1111.0385, run the same distributed-trust machinery against
/// packet-dropping nodes): each node audits whether its MPR-selected
/// WILL_ALWAYS neighbors actually re-forward the floods they accepted.
/// The audit is log-derived like everything else the IDS consumes — it
/// reads tc_recv / fwd_echo / hello_recv records and the MPR set the
/// detector follows from mpr_changed, never protocol state.

/// A flood entry stays pending this long before it is tallied — the
/// audited MPR's jittered re-broadcast (<= 100 ms) must have landed by
/// then, with margin for a multi-hop detour.
inline constexpr sim::Duration kFloodTimeout = sim::Duration::from_seconds(2.0);
/// Minimum closed-entry count before a window can fail (transitional
/// MPR-selector windows must not convict).
inline constexpr std::uint64_t kMinExpected = 3;
/// A window fails when forwarded < kFailRatio * expected.
inline constexpr double kFailRatio = 0.5;

/// One closed audit-window tally for an audited MPR: out of `expected`
/// floods it accepted while selected, how many did the local log hear it
/// re-forward. Travels the audit-event stream as a kForwardAudit frame.
struct ForwardAudit {
  NodeId mpr;
  std::uint64_t expected = 0;
  std::uint64_t forwarded = 0;
};

/// Streaming auditor over one node's log records. Scope: only MPRs
/// that advertise WILL_ALWAYS are audited on third-party floods — a
/// WILL_ALWAYS node is selected MPR by *every* neighbor (RFC 3626 §8.3.1
/// step 1), so it is obliged to re-forward any fresh flood it hears,
/// which is exactly the inference a local log can make soundly. Default-
/// willingness MPRs keep the detector's own-TC E2 path (TriggerKind::kDrop);
/// they are never audited here, so honest bystanders cannot fail a window.
class ForwardingAuditor {
 public:
  /// Reads one record, later than every record read before. `mprs` is our
  /// MPR set (ascending) as of that record; a fresh flood audits its
  /// WILL_ALWAYS members.
  void read(const logging::RecordView& record, std::span<const NodeId> mprs);

  /// Closes every pending flood older than kFloodTimeout at `now` and
  /// returns each audited MPR's tally over them, sorted by MPR. Nothing
  /// carries over to the next close, so one borderline round cannot bleed
  /// into the next.
  std::vector<ForwardAudit> close(sim::Time now);

  /// Whether a closed tally fails: at least kMinExpected floods, of which
  /// fewer than kFailRatio were heard re-forwarded.
  static bool fails(const ForwardAudit& tally) {
    return tally.expected >= kMinExpected &&
           static_cast<double>(tally.forwarded) <
               kFailRatio * static_cast<double>(tally.expected);
  }

  /// One flood awaiting the audited MPRs' re-broadcasts (public for
  /// checkpointing).
  struct PendingFlood {
    NodeId orig;
    std::int64_t seq = 0;
    sim::Time first_heard{};
    std::vector<NodeId> audited;  ///< sorted; WILL_ALWAYS MPRs at creation
    std::vector<NodeId> credited;  ///< sorted subset heard re-forwarding
  };

  /// Checkpoint image: everything the log-derived audit state needs to
  /// continue byte-identically after a restore.
  struct Persisted {
    std::vector<NodeId> always;  ///< ascending (the checkpoint decoder checks)
    std::vector<PendingFlood> pending;
  };
  Persisted persist() const;
  void restore(const Persisted& p);

 private:
  void credit(NodeId orig, std::int64_t seq, NodeId by);

  std::vector<NodeId> always_;  ///< WILL_ALWAYS advertisers, ascending
  std::deque<PendingFlood> pending_;  ///< in first-heard order
};

}  // namespace manet::core
