#include "runtime/experiment_spec.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "stats/descriptive.hpp"

namespace manet::runtime {

std::string to_string(MobilityPreset preset) {
  switch (preset) {
    case MobilityPreset::kStatic:
      return "static";
    case MobilityPreset::kLowChurn:
      return "low";
    case MobilityPreset::kHighChurn:
      return "high";
  }
  return "?";
}

bool parse_mobility_preset(const std::string& text, MobilityPreset& out) {
  if (text == "static" || text == "kStatic") {
    out = MobilityPreset::kStatic;
  } else if (text == "low" || text == "kLowChurn") {
    out = MobilityPreset::kLowChurn;
  } else if (text == "high" || text == "kHighChurn") {
    out = MobilityPreset::kHighChurn;
  } else {
    return false;
  }
  return true;
}

double preset_loss_probability(MobilityPreset preset) {
  switch (preset) {
    case MobilityPreset::kStatic:
      return 0.0;
    case MobilityPreset::kLowChurn:
      return 0.05;
    case MobilityPreset::kHighChurn:
      return 0.15;
  }
  return 0.0;
}

std::size_t GridPoint::num_liars() const {
  if (num_nodes < 2) return 0;
  const auto bystanders = num_nodes - 2;  // minus attacker and investigator
  const double want = attacker_fraction * static_cast<double>(bystanders);
  const auto rounded = static_cast<std::size_t>(std::lround(std::max(want, 0.0)));
  return std::min(rounded, bystanders);
}

scenario::TrustExperiment::Config ReplicationTask::to_config() const {
  scenario::TrustExperiment::Config cfg;
  cfg.num_nodes = point.num_nodes;
  cfg.num_liars = point.num_liars();
  cfg.seed = seed;
  cfg.attack = attack;
  cfg.drop_fraction = drop_fraction;
  cfg.radio_loss = preset_loss_probability(point.mobility);
  cfg.engine = engine;
  cfg.engine_threads = engine_threads;
  cfg.shards = shards;
  if (chaos) {
    // Chaos window: opens after the 15 s OLSR warm-up, sized to the round
    // budget so restarts land while rounds are still being driven. The
    // arena edge mirrors scenario/grid_layout's 50 m spacing.
    const auto cols = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(point.num_nodes))));
    cfg.fault_plan = faults::FaultPlan::chaos(
        seed, point.num_nodes, static_cast<double>(cols) * 50.0,
        sim::Time::from_seconds(20.0),
        sim::Time::from_seconds(20.0 + 5.0 * static_cast<double>(rounds)));
  } else {
    cfg.fault_plan = fault_plan;
  }
  return cfg;
}

std::vector<GridPoint> ExperimentSpec::grid() const {
  std::vector<GridPoint> points;
  points.reserve(node_counts.size() * attacker_fractions.size() *
                 mobility_presets.size());
  for (auto nodes : node_counts)
    for (auto fraction : attacker_fractions)
      for (auto preset : mobility_presets)
        points.push_back(GridPoint{nodes, fraction, preset});
  return points;
}

std::vector<ReplicationTask> ExperimentSpec::expand() const {
  const auto points = grid();
  std::vector<ReplicationTask> tasks;
  tasks.reserve(points.size() * seeds.size());
  std::size_t index = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (auto seed : seeds) {
      ReplicationTask task;
      task.index = index++;
      task.point_index = p;
      task.point = points[p];
      task.seed = seed;
      task.rounds = rounds;
      task.attack = attack;
      task.drop_fraction = drop_fraction;
      task.engine = engine;
      task.shards = shards;
      task.chaos = chaos;
      task.fault_plan = fault_plan;
      task.metrics = metrics;
      task.tracing = tracing;
      tasks.push_back(task);
    }
  }
  return tasks;
}

std::vector<std::uint64_t> ExperimentSpec::seed_range(std::uint64_t base,
                                                      std::size_t count) {
  // SplitMix64: the classic stream used to seed xoshiro generators; distinct
  // outputs for distinct counters, so replications never share a stream.
  std::vector<std::uint64_t> out;
  out.reserve(count);
  std::uint64_t state = base;
  for (std::size_t i = 0; i < count; ++i) {
    state += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z = z ^ (z >> 31);
    out.push_back(z == 0 ? 1 : z);  // Rng treats seeds verbatim; avoid 0
  }
  return out;
}

ReplicationResult run_replication(const ReplicationTask& task) {
  // Zero rounds would yield an all-default result indistinguishable from a
  // legitimate "no conviction" run; fail loudly like TrustExperiment does
  // for an unconstructible topology.
  if (task.rounds <= 0)
    throw std::invalid_argument{"replication needs at least one round"};
  const auto cfg = task.to_config();

  // Observability arena for this replication: created only on request, and
  // bound to this thread (psim worker lanes inherit it at each window) for
  // the whole setup + rounds drive. With no Context the handles below are
  // dead and every instrumented site stays a single untaken branch.
  std::unique_ptr<obs::Context> obs_ctx;
  if (task.observed()) {
    obs::Context::Config oc;
    oc.tracing = task.tracing;
    obs_ctx = std::make_unique<obs::Context>(oc);
  }
  obs::Scope obs_scope{obs_ctx.get()};
  const auto detect_hist = obs::histogram("manet_round_detect", -1.0, 1.0, 16);
  const auto round_sim_s =
      obs::histogram("manet_round_duration_sim_seconds", 0.0, 30.0, 30);
  const auto rounds_gauge = obs::gauge("manet_replication_rounds");

  scenario::TrustExperiment exp{cfg};
  exp.setup();

  ReplicationResult result;
  result.task_index = task.index;
  result.point_index = task.point_index;
  result.point = task.point;
  result.seed = task.seed;
  result.detect_per_round.reserve(static_cast<std::size_t>(task.rounds));

  const bool faulted = task.faulted();
  std::vector<sim::Time> round_ends;
  scenario::TrustExperiment::RoundSnapshot last;
  sim::Time prev_at = exp.network().now();
  for (int r = 0; r < task.rounds; ++r) {
    last = exp.run_round();
    detect_hist.observe(last.detect);
    round_sim_s.observe((last.at - prev_at).seconds());
    prev_at = last.at;
    result.detect_per_round.push_back(last.detect);
    if (faulted) {
      result.down_per_round.push_back(last.down);
      result.false_conv_per_round.push_back(last.false_convictions);
      result.suppressed_per_round.push_back(last.suppressed);
      result.converged_per_round.push_back(last.converged);
      round_ends.push_back(last.at);
    }
    if (result.conviction_round < 0 &&
        last.verdict == trust::Verdict::kIntruder) {
      result.conviction_round = last.round;
    }
  }

  if (faulted) {
    result.invariant_violations = exp.invariants()->violations().size();
    // Re-convergence latency: rounds from the plan's last heal to the
    // first round that ended converged after it.
    const auto heal = exp.injector()->last_heal();
    if (heal > sim::Time{}) {
      std::size_t first_after = round_ends.size();
      for (std::size_t i = 0; i < round_ends.size(); ++i) {
        if (round_ends[i] >= heal) {
          first_after = i;
          break;
        }
      }
      for (std::size_t i = first_after; i < round_ends.size(); ++i) {
        if (result.converged_per_round[i]) {
          result.reconverge_rounds = static_cast<int>(i - first_after);
          break;
        }
      }
    }
  }

  result.final_verdict = last.verdict;
  result.final_detect = last.detect;
  result.final_margin = last.margin;
  result.false_convictions = last.false_convictions;
  result.attacker_trust = last.trust[exp.attacker()];

  stats::RunningStats liar_trust, honest_trust;
  for (auto id : exp.liars()) liar_trust.add(last.trust[id]);
  for (auto id : exp.honest()) honest_trust.add(last.trust[id]);
  result.mean_liar_trust = liar_trust.count() ? liar_trust.mean() : 0.0;
  result.mean_honest_trust = honest_trust.count() ? honest_trust.mean() : 0.0;

  auto& net = exp.network();
  for (std::size_t i = 0; i < net.size(); ++i) {
    const auto& s = net.agent(i).stats();
    result.control_messages += s.hello_sent + s.tc_sent + s.msgs_forwarded;
  }

  if (obs_ctx) {
    rounds_gauge.set(static_cast<double>(task.rounds));
    if (task.metrics) result.metrics = obs_ctx->snapshot();
    if (task.tracing) {
      result.trace = obs_ctx->trace();
      result.trace_dropped = obs_ctx->trace_dropped();
    }
  }
  return result;
}

}  // namespace manet::runtime
