#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"
#include "obs/obs.hpp"
#include "scenario/trust_experiment.hpp"
#include "trust/detection.hpp"

namespace manet::runtime {

/// Link-churn presets for scenario sweeps. The §V experiment keeps every
/// node inside radio range, so mobility manifests to the investigator as
/// verifiers intermittently failing to hear or answer — modeled here as
/// radio loss probability on the shared medium (the same knob Table C's
/// random-waypoint runs end up exercising through link breakage).
enum class MobilityPreset {
  kStatic,    ///< loss 0 — the paper's baseline cluster
  kLowChurn,  ///< loss 5% — pedestrian-speed waypoint churn
  kHighChurn, ///< loss 15% — vehicular churn, frequent answer timeouts
};

std::string to_string(MobilityPreset preset);
/// Parses "static" / "low" / "high" (also accepts the full enum spellings).
bool parse_mobility_preset(const std::string& text, MobilityPreset& out);
double preset_loss_probability(MobilityPreset preset);

/// One cell of the sweep grid: everything that varies between scenario
/// configurations except the replication seed.
struct GridPoint {
  std::size_t num_nodes = 16;
  /// Fraction of the n-2 bystanders that collude with the attacker.
  double attacker_fraction = 0.0;
  MobilityPreset mobility = MobilityPreset::kStatic;

  /// Liar head-count this fraction means at this node count (rounded to
  /// nearest, clamped so the experiment stays constructible).
  std::size_t num_liars() const;
};

/// One unit of work for the Runner: a grid point bound to a concrete seed.
struct ReplicationTask {
  std::size_t index = 0;        ///< position in the expanded grid (stable)
  std::size_t point_index = 0;  ///< which GridPoint this replication belongs to
  GridPoint point;
  std::uint64_t seed = 1;
  int rounds = 12;
  /// Attack family for this replication. Rides the task, not GridPoint:
  /// a sweep is either all-spoof or all-grayhole, and keeping it off the
  /// grid keeps the aggregator's pinned CSV headers untouched.
  scenario::TrustExperiment::AttackKind attack =
      scenario::TrustExperiment::AttackKind::kSpoof;
  /// Grayhole drop probability (kGrayhole only): 1.0 = blackhole.
  double drop_fraction = 1.0;
  /// Engine driving this replication. Sharded results are invariant to
  /// engine_threads and shards (the psim determinism contract), so the
  /// Runner is free to rewrite those two for load-balancing without
  /// changing any output byte.
  sim::EngineKind engine = sim::EngineKind::kSequential;
  unsigned engine_threads = 1;  ///< sharded workers; 0 = hardware
  unsigned shards = 0;          ///< sharded spatial shards; 0 = auto
  /// Chaos mode: derive a seeded FaultPlan from this task (node churn,
  /// brown-out, netsplit — see faults::FaultPlan::chaos) so every
  /// replication gets its own deterministic disturbance schedule.
  bool chaos = false;
  /// Explicit fault schedule (used when `chaos` is false); empty = pristine.
  faults::FaultPlan fault_plan;

  /// Observability: collect a metrics snapshot for this replication. Off
  /// by default — the disabled path is a no-op branch per record site.
  bool metrics = false;
  /// Record flight-recorder trace spans (implies a bound obs::Context).
  bool tracing = false;

  bool faulted() const { return chaos || !fault_plan.empty(); }
  bool observed() const { return metrics || tracing; }

  /// The scenario config this task denotes, ready for TrustExperiment.
  scenario::TrustExperiment::Config to_config() const;
};

/// Everything a replication run yields; the Aggregator folds these per
/// grid point. All fields are deterministic functions of the task.
struct ReplicationResult {
  std::size_t task_index = 0;
  std::size_t point_index = 0;
  GridPoint point;
  std::uint64_t seed = 0;

  trust::Verdict final_verdict = trust::Verdict::kUnrecognized;
  double final_detect = 0.0;        ///< Eq. 8 of the last round
  double final_margin = 0.0;        ///< Eq. 9 epsilon of the last round
  int conviction_round = -1;        ///< first round with an intruder verdict; -1 = never
  double attacker_trust = 0.0;      ///< investigator's trust in the attacker, final
  double mean_liar_trust = 0.0;     ///< 0 when the point has no liars
  double mean_honest_trust = 0.0;
  std::vector<double> detect_per_round;  ///< Eq. 8 trajectory (Fig. 3)
  std::uint64_t control_messages = 0;    ///< HELLO+TC sent network-wide (overhead)

  // --- graceful-degradation trajectory (faulted tasks only; empty else) ---
  std::vector<std::size_t> down_per_round;  ///< nodes down at round end
  /// Cumulative false convictions of crashed-but-honest bystanders.
  std::vector<std::uint64_t> false_conv_per_round;
  /// Cumulative liveness-gate suppressions by the detector.
  std::vector<std::uint64_t> suppressed_per_round;
  std::vector<bool> converged_per_round;  ///< up-aware convergence flag
  /// Rounds from the plan's last heal event to the first converged round
  /// after it: 0 = converged at the first post-heal check, -1 = the run
  /// never re-converged (or the plan had no heal).
  int reconverge_rounds = -1;
  /// Safety-rule violations flagged by the invariant checker (should be 0).
  std::uint64_t invariant_violations = 0;
  /// Cumulative kIntruder verdicts against honest nodes (grayhole and
  /// faulted runs; 0 on pristine spoof runs). manet_experiments exits 3
  /// when a grayhole sweep records any.
  std::uint64_t false_convictions = 0;

  // --- observability harvest (task.observed() runs only; empty else) ---
  /// Merged metrics snapshot of the replication (task.metrics).
  obs::MetricsSnapshot metrics;
  /// Flight-recorder dump, deterministically ordered (task.tracing).
  std::vector<obs::TraceEvent> trace;
  /// Trace events lost to ring wrap across all recording threads.
  std::uint64_t trace_dropped = 0;
};

/// Declarative description of a full sweep: the cartesian grid
/// seeds x node_counts x attacker_fractions x mobility_presets.
struct ExperimentSpec {
  std::vector<std::uint64_t> seeds{1};
  std::vector<std::size_t> node_counts{16};
  std::vector<double> attacker_fractions{0.25};
  std::vector<MobilityPreset> mobility_presets{MobilityPreset::kStatic};
  int rounds = 12;
  /// Attack family for every replication (see ReplicationTask::attack).
  scenario::TrustExperiment::AttackKind attack =
      scenario::TrustExperiment::AttackKind::kSpoof;
  /// Grayhole drop probability (kGrayhole only).
  double drop_fraction = 1.0;
  /// Engine for every replication of the sweep (--engine on the CLI). The
  /// Runner decides intra- vs inter-replication parallelism; see
  /// Runner::run.
  sim::EngineKind engine = sim::EngineKind::kSequential;
  unsigned shards = 0;  ///< sharded spatial shards per replication; 0 = auto
  /// Chaos mode for every replication (the `chaos` CLI preset): each task
  /// derives its own seeded fault plan. Mutually exclusive with fault_plan.
  bool chaos = false;
  /// One explicit fault schedule shared by every replication (--faults FILE).
  faults::FaultPlan fault_plan;
  /// Observability toggles applied to every task (see ReplicationTask).
  bool metrics = false;
  bool tracing = false;

  /// Grid points in declaration order (node count, fraction, preset).
  std::vector<GridPoint> grid() const;

  /// The full task list: every grid point under every seed, with stable
  /// indices so a parallel run reassembles into a deterministic order.
  std::vector<ReplicationTask> expand() const;

  std::size_t replication_count() const {
    return seeds.size() * grid().size();
  }

  /// `count` well-spread deterministic seeds derived from `base`
  /// (SplitMix64), for "--seeds N" style invocations.
  static std::vector<std::uint64_t> seed_range(std::uint64_t base,
                                               std::size_t count);
};

/// Runs one replication synchronously: builds the TrustExperiment, drives
/// `rounds` investigation rounds, extracts the metrics. Deterministic given
/// the task. Thread-safe: each call owns its entire simulator stack.
ReplicationResult run_replication(const ReplicationTask& task);

}  // namespace manet::runtime
