// manet_experiments — parallel scenario sweeps over the §V trust experiment.
//
// Reproduces the paper-style evaluations in one invocation: a Table A style
// accuracy sweep over liar ratios (--sweep table-a) or a Fig. 3 style
// round-by-round detection trajectory (--sweep fig3), or any custom grid of
// seeds x node counts x liar fractions x mobility presets. Replications run
// in parallel across --threads workers; aggregate output is byte-identical
// for every thread count.
//
//   manet_experiments --sweep table-a --seeds 32 --threads 4
//   manet_experiments --nodes 16,24 --liar-fractions 0,0.25 --seeds 8
//       --format json --out sweep.json
//   manet_experiments --sweep fig3 --per-round --out fig3.csv
//   manet_experiments --sweep chaos --seeds 8 --degradation --out chaos.csv

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"
#include "obs/manifest.hpp"
#include "obs/obs.hpp"
#include "runtime/aggregator.hpp"
#include "runtime/runner.hpp"

using namespace manet;

namespace {

void usage() {
  std::fprintf(stderr, R"(usage: manet_experiments [options]

grid options
  --seeds N             replications per grid point (default 8)
  --seed-base B         base for the SplitMix64 seed stream (default 42)
  --nodes LIST          comma-separated node counts (default 16)
  --liar-fractions LIST comma-separated bystander liar fractions (default 0,0.25)
  --mobility LIST       comma-separated presets: static,low,high (default static)
  --rounds N            investigation rounds per replication (default 12)

presets (override the grid; --seeds still applies)
  --sweep table-a       liar-ratio accuracy sweep (fractions 0,0.15,0.3,0.45)
  --sweep fig3          Fig. 3 liar trajectory (fractions 0.07,0.29,0.43, 25 rounds)
  --sweep scale-256     paper-plus scale: 256 nodes, fractions 0,0.25, 6 rounds
                        (~30 s per replication on one core)
  --sweep scale-1024    1024 nodes, fraction 0.25, 3 rounds (a long-haul run:
                        ~18 min and ~4.7 GB per replication on one core)
  --sweep chaos         graceful-degradation run: 16 nodes, fraction 0.25,
                        12 rounds, per-seed chaos fault plans (node churn,
                        brown-out, netsplit); pair with --degradation
  --sweep grayhole      forwarding-audit run: 16-node multi-hop grid, node 1
                        drops the floods it attracted as everyone's MPR;
                        exits 3 if any honest node is ever convicted
  --drop-fraction F     grayhole drop probability (default 1.0 = blackhole)

fault injection
  --faults chaos|FILE   chaos = derive a seeded fault plan per replication;
                        FILE = one explicit plan (FaultPlan text form) shared
                        by every replication. Faulted runs audit the safety
                        invariants and exit 3 if any violation is recorded.

execution / output
  --engine NAME         discrete-event engine per replication (default sequential):
                        sequential = single-threaded, byte-stable legacy traces
                        sharded    = psim conservative parallel engine; results
                                     are identical for any thread/shard count
  --shards N            sharded engine: spatial shards per replication, 0 = auto
                        (default 0; output-invariant, pure perf knob)
  --threads N           worker threads, 0 = hardware concurrency (default 0);
                        with --engine sharded the runner splits the budget
                        between replications and shard lanes by node count
  --confidence L        CI level for the aggregates (default 0.95)
  --format csv|json     aggregate output format (default csv)
  --per-round           emit the per-round Eq. 8 trajectory CSV instead
  --degradation         emit the per-round graceful-degradation CSV instead
                        (down/false-conviction/suppression/convergence means)
  --out FILE            write output to FILE instead of stdout
  --quiet               suppress progress on stderr
  --help                this text

observability (see docs/ARCHITECTURE.md, "Observability")
  --metrics FILE        collect the metrics registry and write a Prometheus
                        text exposition (run manifest in the header). Never
                        changes any other output byte.
  --trace FILE          record sim-time trace spans into the per-thread
                        flight recorders and dump Chrome trace_event JSON
                        (chrome://tracing / Perfetto; pid = task index,
                        tid = shard lane). Written on failure exits too.
)");
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= text.size()) {
    auto end = text.find(',', start);
    if (end == std::string::npos) end = text.size();
    items.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return items;
}

// Strict scalar parses: the whole string must be consumed and the value must
// be a plain non-negative decimal, so typos like "--threads 4x" and
// wrap-arounds like "--seeds -1" error out instead of silently running.
bool parse_u64(const std::string& item, std::uint64_t& out) {
  if (item.empty() || !std::isdigit(static_cast<unsigned char>(item[0])))
    return false;
  errno = 0;
  char* rest = nullptr;
  out = std::strtoull(item.c_str(), &rest, 10);
  return rest != nullptr && *rest == '\0' && errno == 0;
}

bool parse_f64(const std::string& item, double& out) {
  if (item.empty()) return false;
  char* rest = nullptr;
  out = std::strtod(item.c_str(), &rest);
  return rest != nullptr && *rest == '\0';
}

bool parse_size_list(const std::string& text, std::vector<std::size_t>& out) {
  out.clear();
  for (const auto& item : split_commas(text)) {
    std::uint64_t value = 0;
    if (!parse_u64(item, value) || value < 4 || value > 4096) return false;
    out.push_back(static_cast<std::size_t>(value));
  }
  return !out.empty();
}

bool parse_double_list(const std::string& text, std::vector<double>& out) {
  out.clear();
  for (const auto& item : split_commas(text)) {
    double value = 0.0;
    // The negated >= form also rejects NaN.
    if (!parse_f64(item, value) || !(value >= 0.0 && value <= 1.0))
      return false;
    out.push_back(value);
  }
  return !out.empty();
}

bool parse_preset_list(const std::string& text,
                       std::vector<runtime::MobilityPreset>& out) {
  out.clear();
  for (const auto& item : split_commas(text)) {
    runtime::MobilityPreset preset;
    if (!runtime::parse_mobility_preset(item, preset)) return false;
    out.push_back(preset);
  }
  return !out.empty();
}

template <class T, class Fn>
std::string join_list(const std::vector<T>& items, Fn render) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ',';
    out += render(items[i]);
  }
  return out;
}

// The invocation's provenance stamp. Every field is a pure function of the
// arguments (no timestamps, no resolved thread counts beyond the request),
// so identical invocations stamp identical manifests; thread-determinism
// diffs must still filter "^#" because --threads is recorded as requested.
obs::RunManifest build_manifest(const runtime::ExperimentSpec& spec,
                                std::uint64_t seed_base, unsigned threads,
                                double confidence) {
  obs::RunManifest m{"manet_experiments"};
  m.add("engine", spec.engine == sim::EngineKind::kSharded ? "sharded"
                                                           : "sequential");
  m.add("threads", static_cast<std::uint64_t>(threads));
  m.add("shards", static_cast<std::uint64_t>(spec.shards));
  m.add("nodes", join_list(spec.node_counts, [](std::size_t n) {
          return std::to_string(n);
        }));
  m.add("liar_fractions", join_list(spec.attacker_fractions, [](double f) {
          char buf[32];
          std::snprintf(buf, sizeof buf, "%g", f);
          return std::string{buf};
        }));
  m.add("mobility", join_list(spec.mobility_presets, [](auto p) {
          return runtime::to_string(p);
        }));
  m.add("rounds", static_cast<std::uint64_t>(spec.rounds));
  m.add("seeds", static_cast<std::uint64_t>(spec.seeds.size()));
  m.add("seed_base", seed_base);
  m.add("attack",
        spec.attack == scenario::TrustExperiment::AttackKind::kGrayhole
            ? "grayhole"
            : "spoof");
  if (spec.attack == scenario::TrustExperiment::AttackKind::kGrayhole)
    m.add("drop_fraction", spec.drop_fraction);
  m.add("faulted", spec.chaos                    ? "chaos"
                   : !spec.fault_plan.empty()    ? "plan"
                                                 : "none");
  char conf[32];
  std::snprintf(conf, sizeof conf, "%g", confidence);
  m.add("confidence", std::string{conf});
  return m;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
    return false;
  }
  std::fputs(content.c_str(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  runtime::ExperimentSpec spec;
  spec.attacker_fractions = {0.0, 0.25};
  std::size_t num_seeds = 8;
  std::uint64_t seed_base = 42;
  unsigned threads = 0;
  double confidence = 0.95;
  std::string format = "csv";
  std::string out_path;
  std::string metrics_path;
  std::string trace_path;
  bool per_round = false;
  bool degradation = false;
  bool quiet = false;

  auto need_value = [&](int i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: %s needs a value\n", argv[i]);
      std::exit(2);
    }
    return argv[i + 1];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool ok = true;
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--seeds") {
      std::uint64_t value = 0;
      ok = parse_u64(need_value(i++), value) && value > 0 && value <= 1000000;
      num_seeds = static_cast<std::size_t>(value);
    } else if (arg == "--seed-base") {
      ok = parse_u64(need_value(i++), seed_base);
    } else if (arg == "--nodes") {
      ok = parse_size_list(need_value(i++), spec.node_counts);
    } else if (arg == "--liar-fractions") {
      ok = parse_double_list(need_value(i++), spec.attacker_fractions);
    } else if (arg == "--mobility") {
      ok = parse_preset_list(need_value(i++), spec.mobility_presets);
    } else if (arg == "--rounds") {
      std::uint64_t value = 0;
      ok = parse_u64(need_value(i++), value) && value > 0 && value <= 100000;
      spec.rounds = static_cast<int>(value);
    } else if (arg == "--sweep") {
      const std::string sweep = need_value(i++);
      if (sweep == "table-a") {
        spec.node_counts = {16};
        spec.attacker_fractions = {0.0, 0.15, 0.30, 0.45};
        spec.rounds = 12;
      } else if (sweep == "fig3") {
        spec.node_counts = {16};
        // 1, 4 and 6 liars out of 14 bystanders — the paper's ratios.
        spec.attacker_fractions = {0.07, 0.29, 0.43};
        spec.rounds = 25;
      } else if (sweep == "scale-256") {
        // Paper-plus scale: the per-cell broadcast snapshots and spatial index
        // carry the control plane; each replication is still minutes of
        // CPU (the dense cluster gives every node ~70 OLSR neighbors).
        spec.node_counts = {256};
        spec.attacker_fractions = {0.0, 0.25};
        spec.rounds = 6;
      } else if (sweep == "scale-1024") {
        spec.node_counts = {1024};
        spec.attacker_fractions = {0.25};
        spec.rounds = 3;
      } else if (sweep == "chaos") {
        spec.node_counts = {16};
        spec.attacker_fractions = {0.25};
        spec.rounds = 12;
        spec.chaos = true;
        spec.fault_plan = {};
      } else if (sweep == "grayhole") {
        spec.node_counts = {16};
        spec.attacker_fractions = {0.0, 0.25};
        spec.rounds = 12;
        spec.attack = scenario::TrustExperiment::AttackKind::kGrayhole;
      } else {
        std::fprintf(stderr, "error: unknown sweep '%s'\n", sweep.c_str());
        return 2;
      }
    } else if (arg == "--drop-fraction") {
      double value = 1.0;
      ok = parse_f64(need_value(i++), value) && value >= 0.0 && value <= 1.0;
      spec.drop_fraction = value;
    } else if (arg == "--faults") {
      const std::string value = need_value(i++);
      if (value == "chaos") {
        spec.chaos = true;
        spec.fault_plan = {};
      } else {
        std::ifstream in{value};
        if (!in) {
          std::fprintf(stderr, "error: cannot read fault plan '%s'\n",
                       value.c_str());
          return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        try {
          spec.fault_plan = faults::FaultPlan::parse(text.str());
        } catch (const std::exception& e) {
          std::fprintf(stderr, "error: bad fault plan '%s': %s\n",
                       value.c_str(), e.what());
          return 2;
        }
        spec.chaos = false;
      }
    } else if (arg == "--engine") {
      const std::string engine = need_value(i++);
      if (engine == "sequential") {
        spec.engine = sim::EngineKind::kSequential;
      } else if (engine == "sharded") {
        spec.engine = sim::EngineKind::kSharded;
      } else {
        ok = false;
      }
    } else if (arg == "--shards") {
      std::uint64_t value = 0;
      ok = parse_u64(need_value(i++), value) && value <= 4096;
      spec.shards = static_cast<unsigned>(value);
    } else if (arg == "--threads") {
      std::uint64_t value = 0;
      ok = parse_u64(need_value(i++), value) && value <= 4096;
      threads = static_cast<unsigned>(value);
    } else if (arg == "--confidence") {
      ok = parse_f64(need_value(i++), confidence) && confidence > 0.0 &&
           confidence < 1.0;
    } else if (arg == "--format") {
      format = need_value(i++);
      ok = format == "csv" || format == "json";
    } else if (arg == "--per-round") {
      per_round = true;
    } else if (arg == "--degradation") {
      degradation = true;
    } else if (arg == "--out") {
      out_path = need_value(i++);
    } else if (arg == "--metrics") {
      metrics_path = need_value(i++);
      ok = !metrics_path.empty();
    } else if (arg == "--trace") {
      trace_path = need_value(i++);
      ok = !trace_path.empty();
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      usage();
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "error: bad value for %s\n", arg.c_str());
      return 2;
    }
  }

  spec.seeds = runtime::ExperimentSpec::seed_range(seed_base, num_seeds);
  spec.metrics = !metrics_path.empty();
  spec.tracing = !trace_path.empty();

  if (degradation && !spec.chaos && spec.fault_plan.empty()) {
    std::fprintf(stderr,
                 "error: --degradation needs a faulted run "
                 "(--faults or --sweep chaos)\n");
    return 2;
  }

  runtime::Runner::Config rc;
  rc.threads = threads;
  runtime::Runner runner{rc};
  const auto total = spec.replication_count();
  if (!quiet) {
    std::fprintf(stderr,
                 "running %zu replications (%zu grid points x %zu seeds, "
                 "%d rounds) on %u thread(s)\n",
                 total, spec.grid().size(), spec.seeds.size(), spec.rounds,
                 runner.effective_threads(total));
    runner.set_progress([](std::size_t done, std::size_t all) {
      std::fprintf(stderr, "\r  %zu/%zu", done, all);
      if (done == all) std::fprintf(stderr, "\n");
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<runtime::ReplicationResult> results;
  try {
    results = runner.run(spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: replication failed: %s\n", e.what());
    return 1;
  }
  const auto wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Manifests are stamped here, at the CLI layer only: the library CSV
  // renderers (Aggregator, verdict_csv, trust_csv) stay manifest-free so
  // golden fixtures and record/replay byte-comparisons never see them.
  const auto manifest = build_manifest(spec, seed_base, threads, confidence);

  runtime::Aggregator aggregator{confidence};
  std::string output;
  if (degradation) {
    output = manifest.comment_header() +
             runtime::Aggregator::degradation_csv(aggregator.degradation(results));
  } else if (per_round) {
    output = manifest.comment_header() +
             runtime::Aggregator::per_round_csv(aggregator.per_round(results));
  } else {
    const auto rows = aggregator.aggregate(results);
    output = format == "json"
                 ? "{\"manifest\":" + manifest.json_object() +
                       ",\"results\":" + runtime::Aggregator::to_json(rows) +
                       "}\n"
                 : manifest.comment_header() +
                       runtime::Aggregator::to_csv(rows);
  }

  if (out_path.empty()) {
    std::fputs(output.c_str(), stdout);
  } else if (!write_file(out_path, output)) {
    return 1;
  }

  // Observability exposition, written before the safety audits below so a
  // failing run still leaves its metrics and flight-recorder dump behind.
  if (!metrics_path.empty()) {
    obs::MetricsSnapshot merged;
    for (const auto& r : results) merged.merge(r.metrics);
    if (!write_file(metrics_path,
                    merged.to_prometheus(manifest.comment_header())))
      return 1;
  }
  if (!trace_path.empty()) {
    std::vector<std::pair<std::uint64_t, std::vector<obs::TraceEvent>>> groups;
    groups.reserve(results.size());
    std::uint64_t dropped = 0;
    for (const auto& r : results) {
      groups.emplace_back(r.task_index, r.trace);
      dropped += r.trace_dropped;
    }
    if (!write_file(trace_path, obs::trace_json_multi(groups))) return 1;
    if (dropped > 0 && !quiet)
      std::fprintf(stderr,
                   "note: flight recorder dropped %llu event(s) to ring wrap "
                   "(oldest first)\n",
                   static_cast<unsigned long long>(dropped));
  }

  if (!quiet)
    std::fprintf(stderr, "done: %zu replications in %.2f s (%.1f repl/s)\n",
                 total, wall, wall > 0 ? static_cast<double>(total) / wall : 0.0);

  // Faulted runs double as safety audits: any invariant violation (a down
  // node convicted, a route naming a dead or partitioned next hop, trust
  // out of bounds) fails the invocation so chaos smoke jobs catch it.
  std::uint64_t violations = 0;
  for (const auto& r : results) violations += r.invariant_violations;
  if (violations > 0) {
    std::fprintf(stderr,
                 "error: %llu invariant violation(s) during faulted run\n",
                 static_cast<unsigned long long>(violations));
    return 3;
  }
  // Grayhole sweeps carry the same contract through the forwarding audit:
  // a conviction of any honest node fails the invocation.
  if (spec.attack == scenario::TrustExperiment::AttackKind::kGrayhole) {
    std::uint64_t false_convictions = 0;
    for (const auto& r : results) false_convictions += r.false_convictions;
    if (false_convictions > 0) {
      std::fprintf(stderr,
                   "error: %llu false conviction(s) during grayhole sweep\n",
                   static_cast<unsigned long long>(false_convictions));
      return 3;
    }
  }
  return 0;
}
