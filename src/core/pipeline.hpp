#pragma once

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/audit_event.hpp"
#include "trust/detection.hpp"
#include "trust/trust_store.hpp"

namespace manet::core {

/// Outcome of one investigated claim.
struct DetectionReport {
  sim::Time time;
  NodeId suspect;
  NodeId subject;
  bool claimed_up = true;
  /// Verdict of Eq. 10 over the *cumulative* evidence pool for this
  /// disputed link (§IV-C: a too-wide interval demands more evidence, so
  /// rounds accumulate until the margin allows a decision).
  trust::Verdict verdict = trust::Verdict::kUnrecognized;
  double detect = 0.0;  ///< Eq. 8 aggregate of THIS round's answers
  double cumulative_detect = 0.0;  ///< Eq. 8 over the accumulated pool
  stats::ConfidenceInterval interval;  ///< Eq. 9 over the accumulated pool
  std::vector<EvidenceTag> tags;
  std::size_t answers = 0;   ///< this round
  std::size_t timeouts = 0;  ///< this round
  std::size_t cumulative_answers = 0;
  /// True when the evidence said kIntruder but the liveness gate downgraded
  /// the verdict because the suspect looks dead (see
  /// PipelineConfig::liveness_window).
  bool suppressed = false;
};

/// Graceful-degradation counters maintained under faults.
struct DetectorDegradation {
  /// kIntruder verdicts downgraded by the liveness gate.
  std::uint64_t suppressed_convictions = 0;
};

/// The decision-side knobs of the detector — everything the audit-event
/// consumer needs, and nothing the event *producer* (signature matching,
/// scan cadence, investigation transport) needs. A recorded audit log
/// embeds this config in its header so an offline replay is self-contained.
struct PipelineConfig {
  /// The investigating node: its first-hand answers weigh 1.0 in Eq. 8.
  NodeId self;
  trust::TrustParams trust_params;
  trust::DecisionConfig decision;
  /// Minimum |Detect| for a round to move responder trust at all; below it
  /// the aggregate is considered pure noise.
  double trust_update_min_detect = 0.1;
  /// Fault-tolerance gate (see DetectorConfig::liveness_window); zero = off.
  sim::Duration liveness_window{};
  /// Relax unresponsive responders toward default trust instead of freezing
  /// them (see DetectorConfig::decay_unresponsive).
  bool decay_unresponsive = false;
};

/// The detection back half behind an abstract audit-event stream: evidence
/// aggregation (Eq. 8), pooled decision (Eq. 9-10), liveness gating, and
/// every trust update — with no reference to the simulator, the agent, or
/// the investigation transport. The in-sim Detector is one producer of the
/// stream (it forwards its log growth and completed rounds here); the
/// tools/manet_detect replayer is another, feeding the same frames back
/// from a recorded binary audit log. Byte-identical inputs yield
/// byte-identical verdicts, trust trajectories and degradation counters.
class DetectionPipeline {
 public:
  explicit DetectionPipeline(PipelineConfig config);

  const PipelineConfig& config() const { return config_; }

  /// Dispatches one stream event to the matching consume_* method.
  void consume(const AuditEvent& event);

  /// One audit-log line of the observed daemon. Maintains the liveness
  /// oracle (latest reception per peer) that gates convictions.
  void consume_line(const logging::RecordView& line);

  /// One completed investigation round: Eq. 8 aggregation, pool
  /// accumulation, Eq. 9-10 decision, liveness gate, trust updates, report
  /// emission.
  void consume_round(sim::Time time, const AuditRound& round);

  /// One idle-slot forgetting sweep over all known subjects (Fig. 2).
  void consume_decay(sim::Time time);

  /// One closed forwarding-audit window tally (grayhole observability).
  /// Deliberately touches no trust state: convictions ride the ordinary
  /// kRound path, so recording/stripping these frames cannot change a
  /// replayed verdict or trust trajectory.
  void consume_forward_audit(sim::Time time, const ForwardAudit& audit);

  /// One retained forwarding-audit tally with its stream time.
  struct TimedForwardAudit {
    sim::Time time;
    ForwardAudit audit;
  };
  /// The retained tail of consumed kForwardAudit events (bounded ring,
  /// mirrors reports()).
  const std::deque<TimedForwardAudit>& forward_audits() const {
    return forward_audits_;
  }

  trust::TrustStore& trust_store() { return trust_; }
  const trust::TrustStore& trust_store() const { return trust_; }

  const std::deque<DetectionReport>& reports() const { return reports_; }
  using ReportCallback = std::function<void(const DetectionReport&)>;
  void set_report_callback(ReportCallback cb) { on_report_ = std::move(cb); }

  /// Latest time the consumed stream records a reception (HELLO heard
  /// directly, or a TC relayed to us) from `node`; Time{} when never heard.
  sim::Time last_heard_of(NodeId node) const;

  const DetectorDegradation& degradation() const { return degradation_; }

  /// Recorder mode: every consumed kRound/kDecay event is also appended to
  /// `recorder` as a frame of the binary audit-log format. kLine frames are
  /// emitted at the source by the LogStore writer mode (the line reaches
  /// the log before it reaches this pipeline), so consume_line does not
  /// re-emit them. The writer must outlive this pipeline or be detached.
  void set_recorder(logging::AuditWriter* recorder) { recorder_ = recorder; }
  logging::AuditWriter* recorder() const { return recorder_; }

  /// One pooled second-hand answer (public for checkpointing).
  struct PooledAnswer {
    NodeId responder;
    double evidence = 0.0;
    bool answered = false;
  };
  /// One disputed (suspect, subject) link and its pooled answers, oldest
  /// first: the checkpoint's form of a pool.
  using PooledLink =
      std::pair<std::pair<NodeId, NodeId>, std::vector<PooledAnswer>>;

  /// Checkpoint surface (the Detector persists this inside its own image;
  /// the report ring is skipped — nothing trace-relevant reads old
  /// reports). The pools export in ascending link order. Restoring takes
  /// them in that order (strictly ascending links), rebuilds each pool's
  /// Eq. 9 accumulator, and clears the liveness oracle: the owner re-feeds
  /// the retained log window through consume_line.
  std::vector<PooledLink> answer_pool() const;
  void restore(std::vector<PooledLink> pool, DetectorDegradation degradation);

 private:
  /// Accumulated answers of one disputed link, with Eq. 9's accumulator
  /// over their raw evidence in pool order. The accumulator is derived
  /// state: appends add to it, and since Welford has no exact removal, a
  /// trim of the oldest answers or a restore rebuilds it from the kept
  /// answers, so it always equals a from-scratch pass over the pool.
  struct Pool {
    std::pair<NodeId, NodeId> link;
    std::vector<PooledAnswer> answers;
    stats::RunningStats evidence;

    /// Settles an append of answers[from..]: trims the pool to its cap
    /// and rebuilds the accumulator, or adds just the new answers.
    void appended(std::size_t from);
    void rebuild();
  };
  /// The link's pool, created empty on first use.
  Pool& pool_for(NodeId suspect, NodeId subject);

  /// The responder's current trust, looked up once per consume_round: a
  /// memo indexed by node id, valid while its round stamp is current. Ids
  /// from kDenseIds up (never seen in this simulator, but a replayed log
  /// may carry any) go to the store every time.
  double round_trust(NodeId responder);
  /// Ids below this index dense per-id slabs (the trust memo, the liveness
  /// oracle); larger ones take a slower path.
  static constexpr std::uint32_t kDenseIds = 4096;
  struct TrustMemo {
    std::uint64_t round = 0;
    double trust = 0.0;
  };

  PipelineConfig config_;
  trust::TrustStore trust_;
  std::vector<TrustMemo> trust_memo_;
  std::uint64_t memo_round_ = 0;
  // Accumulated answers per disputed link, sorted by (suspect, subject).
  // Evidence values are stored raw; weights use the *current* trust at
  // decision time, so a liar's early answers lose influence as its trust
  // fades.
  std::vector<Pool> pools_;
  // Liveness oracle: the latest reception per peer, Time{} when never
  // heard. Indexed by id below kDenseIds; a map holds the larger ids.
  std::vector<sim::Time> last_heard_;
  std::map<NodeId, sim::Time> last_heard_far_;
  std::deque<DetectionReport> reports_;
  std::deque<TimedForwardAudit> forward_audits_;
  ReportCallback on_report_;
  DetectorDegradation degradation_;
  logging::AuditWriter* recorder_ = nullptr;
};

/// Prefix of every recorded audit log: format magic/version, the pipeline
/// config that produced the stream, and the initial trust snapshot — all a
/// replay needs to reconstruct the consumer exactly.
struct AuditHeader {
  PipelineConfig config;
  std::vector<std::pair<NodeId, double>> trust_rows;
  std::vector<trust::TrustStore::Counter> interaction_rows;
};

/// Writes the header (magic + version + config + trust snapshot, one
/// layout shared with AuditStreamReader) at the current writer position —
/// call before the first frame.
void write_audit_header(logging::AuditWriter& writer, const AuditHeader& header);

/// Builds the replay-side pipeline a header describes: config applied,
/// trust snapshot restored.
DetectionPipeline pipeline_from_header(const AuditHeader& header);

/// Appends one kRound frame for a completed round (the recorder path).
void write_round_frame(logging::AuditWriter& writer, sim::Time time,
                       const AuditRound& round);
/// Appends one kDecay frame for an idle sweep.
void write_decay_frame(logging::AuditWriter& writer, sim::Time time);
/// Appends one kForwardAudit frame for a closed forwarding-audit window.
void write_forward_audit_frame(logging::AuditWriter& writer, sim::Time time,
                               const ForwardAudit& audit);

/// Streaming decoder over a complete audit log (header + frames), e.g. an
/// mmapped file. Every read is bounds-checked; corruption anywhere — bad
/// magic, a version other than kAuditVersion, a header config the
/// pipeline would refuse, unknown frame kind, size prefix past the buffer,
/// payload drift, trailing garbage — throws logging::AuditError.
class AuditStreamReader {
 public:
  /// Reads `data`, which must outlive the reader.
  AuditStreamReader(const std::uint8_t* data, std::size_t size);
  explicit AuditStreamReader(const std::vector<std::uint8_t>& data)
      : AuditStreamReader{data.data(), data.size()} {}
  /// Takes ownership of a temporary log (a view of it would dangle).
  explicit AuditStreamReader(std::vector<std::uint8_t>&& data);
  AuditStreamReader(const AuditStreamReader&) = delete;
  AuditStreamReader& operator=(const AuditStreamReader&) = delete;

  const AuditHeader& header() const { return header_; }

  /// Decodes the next frame into `out`; false at a clean end of stream.
  bool next(AuditEvent& out);

 private:
  std::vector<std::uint8_t> owned_;  ///< empty unless built from a temporary
  logging::AuditReader reader_;
  AuditHeader header_;
};

/// Canonical CSV of a report sequence — the byte-exact equivalence surface
/// between a live run and an offline replay (doubles printed with %.17g,
/// so every bit of the value is on the wire).
std::string verdict_csv(const std::deque<DetectionReport>& reports);

/// Canonical CSV of the final trust state: one row per known subject with
/// trust value and interaction counters.
std::string trust_csv(const trust::TrustStore& store);

}  // namespace manet::core
