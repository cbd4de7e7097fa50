#pragma once

#include <deque>
#include <utility>
#include <vector>

#include "core/investigation.hpp"
#include "core/pipeline.hpp"
#include "core/signatures_forwarding.hpp"
#include "core/signatures_olsr.hpp"
#include "sim/timer.hpp"
#include "trust/detection.hpp"
#include "trust/trust_store.hpp"

namespace manet::core {

/// An MPR that has not retransmitted our TC after this long is E2-suspect.
inline constexpr sim::Duration kFwdTimeout = sim::Duration::from_seconds(4.0);

/// One node's detector: the Eq. 5-10 parameters, the scan, the storm burst
/// and the re-investigation cooldown, and the optional gates and audits.
struct DetectorConfig {
  trust::TrustParams trust_params;
  trust::DecisionConfig decision;
  /// Period of the autonomous log scan.
  sim::Duration scan_interval = sim::Duration::from_seconds(5.0);
  /// TC receptions from one originator within kStormWindow that count as a
  /// broadcast storm.
  std::size_t storm_burst = 20;
  /// Re-investigation cooldown per disputed (suspect, subject) link.
  sim::Duration suspect_cooldown = sim::Duration::from_seconds(10.0);
  /// Minimum |Detect| for a round to move responder trust at all; below it
  /// the aggregate is considered pure noise.
  double trust_update_min_detect = 0.1;
  /// Fault-tolerance gate, off by default (zero) so legacy traces are
  /// untouched. When positive, a kIntruder verdict is downgraded to
  /// kUnrecognized if this node's own log shows no reception from the
  /// suspect within the window: a crashed node cannot answer for itself,
  /// and silence is indistinguishable from guilt only to a naive detector.
  /// Suppressions are counted in degradation().suppressed_convictions.
  sim::Duration liveness_window{};
  /// When true, a responder that timed out has its trust relaxed toward the
  /// default (TrustStore::decay_idle) instead of frozen at its last value —
  /// long-dead nodes neither keep stale high trust nor stale suspicion.
  /// Off by default for trace stability.
  bool decay_unresponsive = false;
  /// Grayhole path: audit whether WILL_ALWAYS MPRs re-forward third-party
  /// floods (core/signatures_forwarding.hpp) and investigate failures
  /// through the ordinary kForwarding round. Off by default so legacy
  /// traces are untouched.
  bool forwarding_audit = false;
};

/// The decision-side subset of a DetectorConfig — what a recorded audit
/// log's header must reproduce for a byte-identical offline replay.
PipelineConfig pipeline_config(NodeId self, const DetectorConfig& config);

/// The paper's distributed, log- and signature-based intrusion detector,
/// one instance per participating node. It periodically reads the growth
/// of the node's audit log (never touching protocol state), raises the
/// typed triggers of the OLSR attack patterns and the E1-E3 evidence of
/// Expression 4 (LogTriggers, its own TCs, the forwarding audit), and
/// launches cooperative investigations.
///
/// The detector is the *producer* half of the detection stack: everything
/// downstream of a completed round — Eq. 8 aggregation, the Eq. 9-10
/// pooled decision, liveness gating, trust updates — lives in the owned
/// DetectionPipeline, which consumes the abstract audit-event stream this
/// class emits (log lines + completed rounds). tools/manet_detect feeds
/// the same pipeline from a recorded binary audit log instead.
class Detector {
 public:
  /// `investigations` is the node's investigation endpoint (shared so that
  /// nodes answer queries whether or not they run their own detector); it
  /// must outlive the Detector.
  Detector(sim::Engine& sim, olsr::Agent& agent,
           InvestigationManager& investigations, DetectorConfig config = {});

  void start();
  void stop();

  /// One scan pass over the records appended since the previous scan, each
  /// read once. Returns the number of investigations launched.
  std::size_t scan_once();

  /// Directly investigates a claim (round-driven experiments, §V): verifiers
  /// default to the suspect's believed 1-hop neighborhood.
  void investigate_claim(NodeId suspect, NodeId subject, bool claimed_up,
                         std::vector<EvidenceTag> tags,
                         std::vector<NodeId> verifiers = {});

  /// The consuming half of the detection stack (exposed so the experiment
  /// harness can attach a recorder or drive idle decay through the stream).
  DetectionPipeline& pipeline() { return pipeline_; }
  const DetectionPipeline& pipeline() const { return pipeline_; }

  trust::TrustStore& trust_store() { return pipeline_.trust_store(); }
  const trust::TrustStore& trust_store() const {
    return pipeline_.trust_store();
  }
  InvestigationManager& investigations() { return investigations_; }

  const std::deque<DetectionReport>& reports() const {
    return pipeline_.reports();
  }
  using ReportCallback = DetectionPipeline::ReportCallback;
  void set_report_callback(ReportCallback cb) {
    pipeline_.set_report_callback(std::move(cb));
  }

  /// Nodes currently believed to be the suspect's 1-hop neighborhood,
  /// from this node's own log (advertised + advertising).
  std::vector<NodeId> believed_neighbors_of(NodeId suspect) const;

  /// Advertised links of `suspect` that local knowledge cannot corroborate
  /// (phantom neighbors) or actively contradicts; empty when everything
  /// checks out. At most `max_links` are returned. Exposed for tests.
  std::vector<NodeId> find_disputed_links(NodeId suspect,
                                          std::size_t max_links = 3) const;

  const DetectorConfig& config() const { return config_; }
  /// The audit log this detector reads (its agent's).
  const logging::LogStore& log() const { return agent_.log(); }

  /// Latest time this node's own log records a reception (HELLO or TC
  /// relay) from `node`; Time{} when the log never heard it. This is the
  /// liveness oracle of the conviction gate — log-derived like everything
  /// else the IDS consumes (feeds pending log growth to the pipeline
  /// first, hence non-const).
  sim::Time last_heard_of(NodeId node);

  const DetectorDegradation& degradation() const {
    return pipeline_.degradation();
  }

  /// One TC awaiting MPR retransmission (E2 bookkeeping; public for
  /// checkpointing). Both lists ascend (the checkpoint decoder checks).
  struct SentTc {
    sim::Time at;
    std::int64_t seq;
    std::vector<NodeId> mprs_then;
    std::vector<NodeId> heard_from;
  };

  /// Checkpoint image of the detector's log-derived state. The trust store
  /// is persisted through its own surface and the report ring is skipped
  /// (nothing trace-relevant reads old reports). Only valid while the scan
  /// timer is stopped — the experiment harness drives rounds manually.
  struct Persisted {
    /// Absolute log index of the next record the scan reads (at most the
    /// log's total_appended; the checkpoint decoder checks).
    std::uint64_t next_scan = 0;
    std::vector<NodeId> current_mprs;  ///< ascending
    std::vector<SentTc> pending_tcs;
    /// When each (suspect, subject) link was last investigated, in
    /// ascending link order (the checkpoint decoder checks).
    std::vector<std::pair<std::pair<NodeId, NodeId>, sim::Time>>
        last_investigated;
    /// In ascending link order (the checkpoint decoder checks).
    std::vector<DetectionPipeline::PooledLink> answer_pool;
    DetectorDegradation degradation;
    ForwardingAuditor::Persisted auditor;
  };
  Persisted persist() const;
  void restore(Persisted p);

  /// Streams agent-log records appended since the previous call into the
  /// pipeline (kLine events). Runs automatically before every round/scan so
  /// the pipeline's liveness oracle is as fresh as the log itself; public so
  /// recorders can flush the tail of the log after the last scan (otherwise
  /// lines logged after the final round never reach the live pipeline and
  /// its counters lag an audit-log replay of the same run). Idempotent and
  /// side-effect-free beyond the liveness map — no RNG draws, no trust
  /// mutation, no audit-log writes.
  void feed_log_growth();

 private:
  void on_round_complete(const RoundResult& result,
                         std::vector<EvidenceTag> tags);
  /// E2 bookkeeping of one record: follows our MPR set, our TC emissions
  /// and their MPR echoes.
  void track_own_tcs(const logging::RecordView& record);
  /// Appends a kDrop trigger per TC that times out in this scan.
  void check_forward_timeouts(std::vector<Trigger>& triggers);
  /// Launches the rounds one trigger raises; returns how many.
  std::size_t launch(const Trigger& trigger);
  /// Launches one round unless its link is in cooldown; returns 1 if so.
  std::size_t launch_round(QueryKind kind, NodeId suspect, NodeId subject,
                           bool claimed_up, std::vector<EvidenceTag> tags);
  void investigate(QueryKind kind, NodeId suspect, NodeId subject,
                   bool claimed_up, std::vector<EvidenceTag> tags,
                   std::vector<NodeId> verifiers);
  bool in_cooldown(NodeId suspect, NodeId subject) const;

  sim::Engine& sim_;
  olsr::Agent& agent_;
  DetectorConfig config_;
  DetectionPipeline pipeline_;
  InvestigationManager& investigations_;
  LogTriggers log_triggers_;
  ForwardingAuditor auditor_;
  sim::PeriodicTimer scan_timer_;

  // Absolute indexes of the next agent-log record the scan reads and the
  // next one streamed into the pipeline (each clamped up if retention
  // already dropped it).
  std::uint64_t next_scan_ = 0;
  std::uint64_t next_feed_ = 0;
  // State reconstructed purely from the log.
  /// Our MPR set, ascending, from mpr_changed; the auditor reads it too.
  std::vector<NodeId> current_mprs_;
  std::deque<SentTc> pending_tcs_;
  /// Ascending by link, as Persisted::last_investigated.
  std::vector<std::pair<std::pair<NodeId, NodeId>, sim::Time>>
      last_investigated_;
  bool running_ = false;
};

}  // namespace manet::core
