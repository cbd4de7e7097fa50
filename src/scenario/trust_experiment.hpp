#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "attacks/drop.hpp"
#include "attacks/link_spoofing.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "faults/invariants.hpp"
#include "scenario/network.hpp"

namespace manet::logging {
class AuditWriter;
}  // namespace manet::logging

namespace manet::scenario {

/// Reproduction harness for the paper's §V evaluation: n nodes in mutual
/// radio range, one link-spoofing attacker whose HELLOs advertise a
/// phantom neighbor, and k colluding liars that falsify their investigation
/// answers. The attacked node runs the detector and performs one
/// investigation per round; the harness snapshots the trust table and the
/// Eq. 8 Detect value after every round.
class TrustExperiment {
 public:
  /// Which misbehaviour node 1 runs.
  enum class AttackKind {
    /// The paper's link spoofing: full-mesh cluster, forged HELLOs, one
    /// investigator-driven claim investigation per round.
    kSpoof,
    /// Grayhole (Sen papers): multi-hop grid, node 1 advertises
    /// WILL_ALWAYS (so it is everyone's MPR, §8.3.1 step 1) and drops the
    /// floods it attracted with probability drop_fraction; detection is
    /// scan-driven through the forwarding audit.
    kGrayhole,
  };

  /// What varies between replications. The rest of the §V set-up is fixed:
  /// initial trust drawn uniformly between 0.05 and 0.85 (the paper:
  /// "randomly set"), the default trust, decision and investigation
  /// parameters, and a spoofer advertising one phantom neighbor.
  struct Config {
    std::size_t num_nodes = 16;   ///< incl. attacker and investigator
    std::size_t num_liars = 4;    ///< the paper's 26.3%
    std::uint64_t seed = 1;
    double radio_loss = 0.0;
    /// Attack family; kSpoof preserves the legacy behaviour (and the
    /// golden traces) exactly.
    AttackKind attack = AttackKind::kSpoof;
    /// Grayhole drop probability (kGrayhole only): 1.0 = blackhole.
    double drop_fraction = 1.0;
    /// Engine driving the replication (see Network::Config): sequential by
    /// default; kSharded runs the psim parallel engine, whose results are
    /// identical for any `engine_threads` / `shards` value.
    sim::EngineKind engine = sim::EngineKind::kSequential;
    unsigned engine_threads = 0;  ///< sharded workers; 0 = hardware
    unsigned shards = 0;          ///< sharded spatial shards; 0 = auto
    /// Deterministic disturbance schedule; empty = pristine run (the
    /// golden traces). Under the sequential engine the plan replays
    /// through the event queue at exact times; under the sharded engine
    /// it is stepped at the 250 ms drive boundaries, where every worker
    /// lane is quiescent — either way the run is byte-stable in the seed
    /// and independent of engine_threads. A non-empty plan also makes the
    /// detector fault tolerant (pristine runs keep the golden traces):
    /// convictions of nodes not heard from within 10 s are downgraded, and
    /// unresponsive investigation responders decay instead of freezing.
    faults::FaultPlan fault_plan;
    /// Record the investigator's audit-event stream (versioned binary
    /// format, logging/audit_log.hpp): header with the pipeline config and
    /// initial trust snapshot, then every log line / completed round / idle
    /// decay as frames. tools/manet_detect replays the bytes offline with
    /// byte-identical verdicts and trust trajectories. Recording never
    /// perturbs the run itself. Incompatible with restore_checkpoint (a
    /// resumed run would record a log with no beginning).
    bool record_audit = false;
  };

  /// What one round leaves behind: the attacker's verdict, the
  /// investigator's trust table and, on faulted and grayhole runs, the
  /// degradation and audit telemetry.
  struct RoundSnapshot {
    int round = 0;
    sim::Time at{};       ///< virtual time when the round ended
    double detect = 0.0;  ///< Eq. 8 for this round
    trust::Verdict verdict = trust::Verdict::kUnrecognized;
    double margin = 0.0;  ///< Eq. 9 epsilon
    /// Investigator's trust per node after the round's updates.
    std::map<NodeId, double> trust;
    // --- graceful-degradation telemetry (faulted and grayhole rounds;
    // --- zeros/false on pristine spoof runs) ---
    std::size_t down = 0;  ///< nodes down when the round ended
    /// Cumulative liveness-gate suppressions (see DetectorConfig).
    std::uint64_t suppressed = 0;
    /// Cumulative kIntruder verdicts against crashed-but-honest bystanders.
    std::uint64_t false_convictions = 0;
    /// Up-aware control-plane convergence at round end.
    bool converged = false;
    // --- grayhole telemetry (zeros on spoof runs) ---
    std::size_t investigations = 0;  ///< launched by this round's scan
    std::size_t audits = 0;  ///< forwarding-audit tallies this round streamed
    std::uint64_t dropped_control = 0;  ///< attacker's cumulative drops
  };

  explicit TrustExperiment(Config config);
  ~TrustExperiment();

  /// Builds the network, lets OLSR converge, activates the attack.
  void setup();

  /// One attack round (the attack stays active). Spoof runs investigate
  /// the forged claim. Grayhole runs pad to the round's 5 s slot (round k
  /// ends no earlier than 15 + 5k s) so floods accumulate and the attacker
  /// drops its share, then run one detector scan. Faulted runs then pad to
  /// the slot too, probe the lowest-id down bystander (a crashed, honest
  /// node whose links have gone stale — exactly the node a naive detector
  /// convicts) and run the invariant checks. A conviction of anyone but
  /// the attacker counts as a false conviction.
  RoundSnapshot run_round();

  /// One idle round: the attack has ceased, no investigation happens, and
  /// the forgetting factor relaxes every trust value toward the default
  /// (Figure 2 semantics).
  RoundSnapshot run_idle_round();

  /// Deactivates the attack and the liars (start of the Fig. 2 phase).
  void cease_attack();

  std::vector<RoundSnapshot> run_attack_rounds(int rounds);

  // --- topology of the experiment ---
  NodeId investigator() const { return Network::id_of(0); }
  NodeId attacker() const { return Network::id_of(1); }
  NodeId phantom() const { return phantom_; }
  const std::vector<NodeId>& liars() const { return liars_; }
  const std::vector<NodeId>& honest() const { return honest_; }
  bool is_liar(NodeId id) const;

  Network& network() { return *network_; }
  core::Detector& detector() { return *detector_; }
  /// The grayhole hooks on node 1 (null on spoof runs).
  attacks::DropAttack* drop_attack() { return drop_; }

  /// The recorded audit-log bytes so far (empty unless
  /// Config::record_audit). Complete at any round boundary — the format is
  /// a stream, not a document, so a prefix up to a frame boundary is a
  /// valid log.
  std::vector<std::uint8_t> audit_log() const;

  // --- fault injection & checkpointing ---
  bool faulted() const { return !config_.fault_plan.empty(); }
  /// The injector driving the configured fault plan (null when pristine).
  faults::FaultInjector* injector() { return injector_.get(); }
  /// Safety-rule oracle fed by faulted rounds (null when pristine).
  const faults::InvariantChecker* invariants() const {
    return invariants_.get();
  }

  /// Serializes the complete run state at a round boundary (versioned
  /// binary format, see faults/checkpoint.hpp). Requires the sequential
  /// engine and no outstanding investigations; restore_checkpoint on the
  /// bytes continues the run byte-identically to never having stopped.
  std::vector<std::uint8_t> save_checkpoint();

  /// Rebuilds an experiment from a snapshot: constructs the object graph
  /// from `config` (which must match the saving run's), overwrites every
  /// component's state from the snapshot, and re-arms all pending events
  /// sorted by (time, original seq) so the event queue replays the
  /// uninterrupted run's tie-breaks. Throws std::invalid_argument for a
  /// sharded or recording config and faults::CheckpointError on
  /// magic/version/config mismatch or corruption.
  static std::unique_ptr<TrustExperiment> restore_checkpoint(
      Config config, const std::vector<std::uint8_t>& bytes);

 private:
  /// Everything in setup() up to (not including) start_all: network,
  /// hooks, liar selection, detector, injector, invariant checker. No
  /// timers armed, no draws from the network's RNG — shared by setup()
  /// and the restore path.
  void build_network();
  /// Daemon lifecycle callbacks handed to the injector (stop / start /
  /// reset_tables+start, each in the node's engine context).
  faults::FaultInjector::NodeOps node_ops();
  /// run_for, plus fault stepping at 250 ms boundaries under the sharded
  /// engine (see Config::fault_plan).
  void drive(sim::Duration d);
  void apply_restored(const std::vector<std::uint8_t>& bytes);
  /// Drives to the end of the current round's 5 s slot.
  void pad_to_slot();
  /// Launches one investigation in the investigator's context — with a
  /// valid `suspect` a claim investigation of its advertised link to
  /// `subject`, verified by every bystander; otherwise one detector scan —
  /// then drives 250 ms slices until none is outstanding (60 s bound).
  /// Each report that lands is tallied into `snap`: the attacker's last one
  /// gives the round's Eq. 8-10 fields, and a conviction of anyone else is
  /// a false conviction. The invariant checker sees a scan's reports as
  /// they land and a claim's report once the round has settled. Returns
  /// the number of investigations a scan launched (0 for a claim).
  std::size_t launch_and_settle(RoundSnapshot& snap, NodeId suspect = {},
                                NodeId subject = {});
  /// The investigator's trust in every other node.
  std::map<NodeId, double> trust_snapshot() const;

  Config config_;
  /// Declared before network_: the investigator's LogStore and the
  /// detector's pipeline hold raw pointers to this writer, so it must
  /// outlive them (members destroy in reverse declaration order).
  std::unique_ptr<logging::AuditWriter> audit_writer_;
  std::unique_ptr<Network> network_;
  core::Detector* detector_ = nullptr;
  attacks::LinkSpoofingAttack* spoof_ = nullptr;  ///< null on grayhole runs
  attacks::DropAttack* drop_ = nullptr;           ///< null on spoof runs
  std::unique_ptr<faults::FaultInjector> injector_;
  std::unique_ptr<faults::InvariantChecker> invariants_;
  NodeId phantom_;
  std::vector<NodeId> liars_;
  std::vector<NodeId> honest_;
  int round_counter_ = 0;
  std::uint64_t false_convictions_ = 0;
};

}  // namespace manet::scenario
