// manet_bench — the harness behind benchmark/run.py (see README.md).
//
// Drives the library only through its public calls and times each call
// from outside. One process runs one workload:
//
//   manet_bench --workload mesh-spoof --seed 1 --seconds 15 [--trace DIR]
//               [--smoke]
//
// and prints one JSON object on stdout: raw timing samples, the outcome of
// every output check, a digest of the workload's verdict and trust CSVs
// and, with --trace, per-layer counters, probe timings and the self time of
// each harness span. run.py turns the samples into metrics.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <memory_resource>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/pipeline.hpp"
#include "logging/format.hpp"
#include "obs/obs.hpp"
#include "olsr/mpr_selection.hpp"
#include "runtime/aggregator.hpp"
#include "runtime/runner.hpp"
#include "scenario/trust_experiment.hpp"

using namespace manet;
using Clock = std::chrono::steady_clock;
using AttackKind = scenario::TrustExperiment::AttackKind;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------------ spans

/// Wall-clock spans the harness records around its own calls into the
/// library (traced runs only). The harness is serial, so child spans nest
/// strictly inside their parent and a span's self time is its duration
/// minus the sum of its children's.
class Spans {
 public:
  explicit Spans(bool on) : on_{on}, origin_{Clock::now()} {}

  /// Runs fn() inside a span and returns its wall time in seconds. The
  /// timing is taken whether or not spans are recorded.
  template <class Fn>
  double time(const char* name, std::uint32_t replication, Fn&& fn) {
    Open open{*this, name, replication};
    fn();
    return open.close();
  }

  /// Records an interval observed from outside (e.g. between two progress
  /// callbacks) as a child of the innermost open span.
  void record(const char* name, std::uint32_t replication,
              Clock::time_point begin, Clock::time_point end) {
    if (!on_) return;
    spans_.push_back({name, replication, parent(), us(begin), us(end)});
  }

  /// Chrome trace_event JSON: one "X" event per span, parent and
  /// replication id in args.
  std::string chrome_json() const {
    std::ostringstream o;
    o << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      char buf[320];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"cat\":\"harness\",\"ph\":\"X\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                    "\"args\":{\"id\":%zu,\"parent\":%d,\"replication\":%u}}",
                    i == 0 ? "" : ",", s.name, s.begin_us,
                    s.end_us - s.begin_us, i, s.parent, s.replication);
      o << buf;
    }
    o << "]}\n";
    return o.str();
  }

  /// Self time per span name, in ms: duration minus the children's.
  std::map<std::string, double> self_ms() const {
    std::vector<double> children(spans_.size(), 0.0);
    for (const auto& s : spans_)
      if (s.parent >= 0) children[s.parent] += s.end_us - s.begin_us;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      out[s.name] += (s.end_us - s.begin_us - children[i]) / 1e3;
    }
    return out;
  }

 private:
  struct Span {
    const char* name;
    std::uint32_t replication;
    int parent;
    double begin_us;
    double end_us;
  };

  class Open {
   public:
    Open(Spans& spans, const char* name, std::uint32_t replication)
        : spans_{spans} {
      if (spans_.on_) {
        id_ = static_cast<int>(spans_.spans_.size());
        spans_.spans_.push_back({name, replication, spans_.parent(), 0, 0});
        spans_.stack_.push_back(id_);
      }
      begin_ = Clock::now();
      if (id_ >= 0) spans_.spans_[id_].begin_us = spans_.us(begin_);
    }
    ~Open() {
      if (!closed_) close();
    }
    Open(const Open&) = delete;
    Open& operator=(const Open&) = delete;

    double close() {
      const auto end = Clock::now();
      closed_ = true;
      if (id_ >= 0) {
        spans_.spans_[id_].end_us = spans_.us(end);
        spans_.stack_.pop_back();
      }
      return std::chrono::duration<double>(end - begin_).count();
    }

   private:
    Spans& spans_;
    int id_ = -1;
    bool closed_ = false;
    Clock::time_point begin_;
  };

  int parent() const { return stack_.empty() ? -1 : stack_.back(); }
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ------------------------------------------------------------ the output

/// FNV-1a over the canonical CSVs a workload produced: equal digests mean
/// byte-equal verdicts and trust tables.
class Digest {
 public:
  void add(std::string_view bytes) {
    for (const unsigned char c : bytes) mix(c);
    mix(0xFF);  // separator, so ("ab","c") != ("a","bc")
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void mix(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001B3ULL;
  }
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// A fixed piece of work shaped like the library's (allocation, number
/// formatting, sorting, hashing) that runs none of its code. On a shared
/// machine other processes' load slows it much as it slows the workloads,
/// so run.py scales every end-to-end time by this kernel's median time in
/// the run. It allocates from its own buffer and first reads twice the
/// per-core cache (2 MB here), so the workload's heap and what its last
/// call left in that cache do not change the kernel's time. Returns the
/// kernel's wall time in seconds.
double calibration_kernel() {
  static volatile std::uint64_t sink = 0;
  static std::vector<std::byte> arena(std::size_t{1} << 20);
  static const std::vector<std::uint64_t> evict(std::size_t{1} << 19, 1);
  std::uint64_t touched = 0;
  for (std::size_t i = 0; i < evict.size(); i += 8) touched += evict[i];

  const auto t0 = Clock::now();
  std::pmr::monotonic_buffer_resource heap{arena.data(), arena.size()};
  std::pmr::vector<std::uint64_t> v(20000, &heap);
  std::uint64_t x = 7;
  for (auto& e : v) {
    x = x * 6364136223846793005ULL + 1;
    e = x >> 20;
  }
  std::sort(v.begin(), v.end());
  std::pmr::unordered_map<std::uint64_t, std::pmr::string> m(&heap);
  char text[24];
  for (std::size_t i = 0; i < 4000; ++i) {
    const int n = std::snprintf(text, sizeof text, "%llu",
                                static_cast<unsigned long long>(v[i]));
    m.emplace(v[i * 5], std::pmr::string(text, static_cast<std::size_t>(n),
                                         &heap));
  }
  sink = sink + touched + m.size() + v[100];
  return seconds_since(t0);
}

/// Everything one workload run reports.
struct Output {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, std::vector<double>> samples;  ///< raw timings
  std::map<std::string, double> values;                ///< single readings
  std::map<std::string, double> layers;                ///< traced runs only
  /// Per-call probe timings (traced runs only); run.py takes medians.
  std::map<std::string, std::vector<double>> layer_samples;
  Digest digest;

  /// One attempted operation or output check; a failure when !ok.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }

  /// Samples the calibration kernel when 250 ms have passed since the last
  /// sample. Called between timed calls, never inside one.
  void calibrate() {
    if (!samples["calib_ms"].empty() && seconds_since(last_calibration_) < 0.25)
      return;
    samples["calib_ms"].push_back(calibration_kernel() * 1e3);
    last_calibration_ = Clock::now();
  }

 private:
  Clock::time_point last_calibration_;
};

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string json_values(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ',';
    out += json_string(k) + ":" + json_number(v);
  }
  return out + "}";
}

std::string json_samples(const std::map<std::string, std::vector<double>>& m) {
  std::string out = "{";
  for (const auto& [k, vs] : m) {
    if (out.size() > 1) out += ',';
    out += json_string(k) + ":[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i) out += ',';
      out += json_number(vs[i]);
    }
    out += ']';
  }
  return out + "}";
}

// ------------------------------------------------------ replication shapes

/// The shape of one replication: topology size, liar share and attack.
struct Shape {
  std::size_t nodes = 16;
  double liar_fraction = 0.0;
  AttackKind attack = AttackKind::kSpoof;
};

/// The config the library's own sweep builds for this replication
/// (ReplicationTask::to_config), so the library sees exactly the inputs
/// manet_experiments would give it.
scenario::TrustExperiment::Config make_config(const Shape& shape,
                                              std::uint64_t seed, int rounds) {
  runtime::ReplicationTask task;
  task.point.num_nodes = shape.nodes;
  task.point.attacker_fraction = shape.liar_fraction;
  task.seed = seed;
  task.rounds = rounds;
  task.attack = shape.attack;
  return task.to_config();
}

obs::Context::Config trace_config() {
  obs::Context::Config c;
  c.tracing = true;
  c.ring_capacity = 1 << 16;
  return c;
}

/// Attacker conviction and honest-node convictions in a report sequence.
struct Verdicts {
  bool convicted = false;
  std::size_t false_convictions = 0;
};

Verdicts tally(const std::deque<core::DetectionReport>& reports,
               net::NodeId attacker) {
  Verdicts v;
  for (const auto& r : reports) {
    if (r.verdict != trust::Verdict::kIntruder) continue;
    if (r.suspect == attacker) {
      v.convicted = true;
    } else {
      ++v.false_convictions;
    }
  }
  return v;
}

/// Work counters of one replication, read through public accessors and the
/// replication's own obs::Context. Ratios are formed by finish_counts()
/// after averaging over replications.
std::map<std::string, double> layer_counts(scenario::TrustExperiment& exp,
                                           const obs::Context& ctx) {
  std::map<std::string, double> m;
  auto& net = exp.network();
  m["sim.events"] = static_cast<double>(net.sim().executed_events());
  const auto& medium = net.medium().stats();
  m["net.frames_sent"] = static_cast<double>(medium.frames_sent);
  m["net.deliveries"] = static_cast<double>(medium.deliveries);
  m["net.bytes_sent"] = static_cast<double>(medium.bytes_sent);
  const auto& batch = net.medium().batch_stats();
  m["net.snapshot_hits"] = static_cast<double>(batch.snapshot_hits);
  m["net.snapshot_builds"] = static_cast<double>(batch.snapshot_builds);
  for (std::size_t i = 0; i < net.size(); ++i) {
    const auto& s = net.agent(i).stats();
    m["olsr.hello_recv"] += static_cast<double>(s.hello_recv);
    m["olsr.tc_recv"] += static_cast<double>(s.tc_recv);
    m["olsr.forwarded"] += static_cast<double>(s.msgs_forwarded);
    m["logging.records"] += static_cast<double>(net.agent(i).log().size());
    const auto& inv = net.investigations(i).stats();
    m["core.queries_sent"] += static_cast<double>(inv.queries_sent);
    m["core.answers_received"] += static_cast<double>(inv.answers_received);
    m["core.retries"] += static_cast<double>(inv.retries);
    m["core.route_failures"] += static_cast<double>(inv.route_failures);
  }
  const auto snap = ctx.snapshot();
  const auto hot = [&](obs::Hot h) {
    return static_cast<double>(snap.counter_value(obs::hot_name(h)));
  };
  m["olsr.route_changes"] = hot(obs::Hot::kRouteRecomputes);
  m["olsr.mpr_changes"] = hot(obs::Hot::kMprRecomputes);
  m["core.investigations"] = hot(obs::Hot::kInvestigationsOpened);
  m["core.reports"] = hot(obs::Hot::kPipelineReports);
  m["core.convictions"] = hot(obs::Hot::kPipelineConvictions);
  // The remaining hot counters verbatim. Per-sender broadcasts (every
  // broadcast takes the batched path), checkpoint, fault, invariant, psim
  // and liveness-gate counters stay zero on these pristine sequential
  // workloads and are left out.
  for (const auto h :
       {obs::Hot::kMediumBatchedBroadcasts, obs::Hot::kMediumUnicasts,
        obs::Hot::kPipelineLines, obs::Hot::kPipelineRounds,
        obs::Hot::kPipelineDecays, obs::Hot::kPipelineForwardAudits})
    m[std::string{"obs."} + obs::hot_name(h)] = hot(h);
  m["obs.trace_events"] = static_cast<double>(ctx.trace().size());
  m["obs.trace_dropped"] = static_cast<double>(ctx.trace_dropped());
  return m;
}

/// Averages per-replication counters into out.layers and forms the ratios.
void finish_counts(const std::vector<std::map<std::string, double>>& per_rep,
                   Output& out) {
  if (per_rep.empty()) return;
  for (const auto& m : per_rep)
    for (const auto& [k, v] : m)
      out.layers[k] += v / static_cast<double>(per_rep.size());
  auto& l = out.layers;
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  l["sim.events_per_s"] = ratio(l["sim.setup_events"], l["sim.setup_s"]);
  l["net.batch_hit_frac"] =
      ratio(l["net.snapshot_hits"],
            l["net.snapshot_hits"] + l["net.snapshot_builds"]);
  l["olsr.route_change_frac"] =
      ratio(l["olsr.route_changes"], l["olsr.hello_recv"] + l["olsr.tc_recv"]);
  l["core.answer_frac"] =
      ratio(l["core.answers_received"], l["core.queries_sent"]);
}

// ------------------------------------------------------------------ probes
// Outside-in probes of a converged network. Traced runs only, and always
// after the timed calls, never inside them.

void probe_graph_build(scenario::Network& net, std::uint32_t rep, Spans& spans,
                       Output& out, const std::string& key) {
  for (std::size_t i = 0; i < net.size(); ++i) {
    std::size_t arcs = 0;
    const double s = spans.time("probe.olsr.graph_build", rep, [&] {
      arcs = net.agent(i).knowledge_graph().arc_count();
    });
    out.layer_samples[key].push_back(s * 1e6);
    out.layer_samples["olsr.graph_arcs"].push_back(static_cast<double>(arcs));
  }
}

/// Per node: the knowledge-graph build (arc_count forces the CSR build), a
/// routing recompute on an unchanged graph (the steady-state path) and on a
/// fresh table, and MPR selection on the node's real tables. Then the text
/// round trip Detector::scan_once pays on every scan, over the
/// investigator's whole log.
void probe_network(scenario::Network& net, std::uint32_t rep, Spans& spans,
                   Output& out) {
  probe_graph_build(net, rep, spans, out, "olsr.graph_build_us");
  for (std::size_t i = 0; i < net.size(); ++i) {
    const auto& agent = net.agent(i);
    const auto graph = agent.knowledge_graph();
    graph.arc_count();
    auto same = agent.routes();
    same.recompute(agent.id(), graph);  // now the table matches this graph
    out.layer_samples["olsr.route_same_us"].push_back(
        1e6 * spans.time("probe.olsr.route_same", rep,
                         [&] { same.recompute(agent.id(), graph); }));
    olsr::RoutingTable cold;
    out.layer_samples["olsr.route_cold_us"].push_back(
        1e6 * spans.time("probe.olsr.route_cold", rep,
                         [&] { cold.recompute(agent.id(), graph); }));
    out.layer_samples["olsr.mpr_select_us"].push_back(
        1e6 * spans.time("probe.olsr.mpr_select", rep, [&] {
          olsr::MprInputs in;
          for (const auto& t : agent.neighbors().neighbor_tuples())
            if (t.symmetric && t.willingness != olsr::Willingness::kNever)
              in.neighbors.emplace_back(t.id, t.willingness);
          agent.neighbors().reachability(agent.id(), in.reach);
          olsr::select_mprs(in);
        }));
  }

  const auto& records = net.agent(0).log().records();
  if (records.empty()) return;
  std::string text;
  const double format_s = spans.time("probe.logging.format", rep, [&] {
    for (const auto& r : records) {
      text += logging::format_record(r);
      text += '\n';
    }
  });
  std::size_t parsed = 0;
  const double parse_s = spans.time("probe.logging.parse", rep, [&] {
    parsed = logging::parse_log(text).size();
  });
  const auto n = static_cast<double>(records.size());
  out.layer_samples["logging.format_ns"].push_back(format_s * 1e9 / n);
  out.layer_samples["logging.parse_ns"].push_back(parse_s * 1e9 / n);
  out.check(parsed == records.size(), "investigator log text round trip");
}

/// Replays audit logs one call at a time: every AuditStreamReader::next,
/// then every DetectionPipeline::consume, each timed on its own and the
/// consumes split by frame kind.
class ReplayProbe {
 public:
  void run(const std::vector<std::uint8_t>& log, std::uint32_t rep,
           Spans& spans) {
    bytes_ += static_cast<double>(log.size());
    core::AuditStreamReader reader{log};
    std::vector<core::AuditEvent> events;
    spans.time("probe.logging.decode", rep, [&] {
      for (;;) {
        core::AuditEvent event;
        const auto t0 = Clock::now();
        const bool more = reader.next(event);
        decode_s_ += seconds_since(t0);
        if (!more) break;
        events.push_back(std::move(event));
      }
    });
    auto pipeline = core::pipeline_from_header(reader.header());
    spans.time("probe.core.consume", rep, [&] {
      for (const auto& event : events) {
        const auto t0 = Clock::now();
        pipeline.consume(event);
        auto& [frames, secs] = kinds_[event.kind];
        ++frames;
        secs += seconds_since(t0);
      }
    });
  }

  void report(Output& out) const {
    double frames = 0;
    for (const auto& [kind, tally] : kinds_) frames += tally.first;
    const auto per = [](double s, double n) { return n > 0 ? s / n : 0.0; };
    out.layers["logging.decode_ns"] = per(decode_s_ * 1e9, frames);
    out.layers["logging.decode_mb_per_s"] = per(bytes_ / 1e6, decode_s_);
    const auto kind = [&](logging::AuditFrame k) {
      const auto it = kinds_.find(k);
      return it == kinds_.end() ? std::pair<std::uint64_t, double>{0, 0.0}
                                : it->second;
    };
    const std::pair<const char*, logging::AuditFrame> names[] = {
        {"line", logging::AuditFrame::kLine},
        {"round", logging::AuditFrame::kRound},
        {"decay", logging::AuditFrame::kDecay},
        {"audit", logging::AuditFrame::kForwardAudit}};
    for (const auto& [name, k] : names) {
      const auto [n, s] = kind(k);
      out.layers[std::string{"core.frames."} + name] = static_cast<double>(n);
      // Decay and forward-audit frames are a handful per log (none in
      // spoof logs): too few to time on their own.
      if (k == logging::AuditFrame::kLine || k == logging::AuditFrame::kRound)
        out.layers[std::string{"core.consume_ns."} + name] =
            per(s * 1e9, static_cast<double>(n));
    }
  }

 private:
  double bytes_ = 0;
  double decode_s_ = 0;
  std::map<logging::AuditFrame, std::pair<std::uint64_t, double>> kinds_;
};

/// One set-up of the workload's topology at N/2, 3N/4 and N: the points of
/// the olsr.setup_exponent fit, and the graph-build probe at N/2.
void run_ladder(const Shape& shape, std::uint64_t seed, Spans& spans,
                Output& out) {
  for (const std::size_t n :
       {shape.nodes / 2, shape.nodes * 3 / 4, shape.nodes}) {
    Shape s = shape;
    s.nodes = n;
    scenario::TrustExperiment exp{make_config(s, seed, 1)};
    const double t = spans.time("ladder.setup", static_cast<std::uint32_t>(n),
                                [&] { exp.setup(); });
    out.layer_samples["ladder.nodes"].push_back(static_cast<double>(n));
    out.layer_samples["ladder.setup_s"].push_back(t);
    if (n == shape.nodes / 2)
      probe_graph_build(exp.network(), static_cast<std::uint32_t>(n), spans,
                        out, "olsr.graph_build_us_half_n");
  }
}

// --------------------------------------------------------------- workloads

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_dir;  ///< empty = untraced
  bool smoke = false;
  bool traced() const { return !trace_dir.empty(); }
};

/// The program's own obs traces, one group per replication.
using ObsTraces =
    std::vector<std::pair<std::uint64_t, std::vector<obs::TraceEvent>>>;

/// One live replication and, on traced runs, its own obs::Context.
struct Replica {
  std::unique_ptr<scenario::TrustExperiment> exp;
  std::unique_ptr<obs::Context> obs;  ///< traced runs only
  std::uint64_t setup_events = 0;
  double setup_s = 0;
};

/// Creates a replication (with an obs::Context on traced runs) and times
/// its set-up.
Replica start_replica(const scenario::TrustExperiment::Config& cfg,
                      bool traced, std::uint32_t id, Spans& spans) {
  Replica r;
  if (traced) r.obs = std::make_unique<obs::Context>(trace_config());
  r.exp = std::make_unique<scenario::TrustExperiment>(cfg);
  obs::Scope scope{r.obs.get()};
  r.setup_s = spans.time("TrustExperiment::setup", id, [&] { r.exp->setup(); });
  r.setup_events = r.exp->network().sim().executed_events();
  return r;
}

/// The counters of a finished replication, with its set-up rate inputs.
std::map<std::string, double> replica_counts(Replica& r) {
  auto m = layer_counts(*r.exp, *r.obs);
  m["sim.setup_events"] = static_cast<double>(r.setup_events);
  m["sim.setup_s"] = r.setup_s;
  return m;
}

/// mesh-spoof and grid-grayhole: whole replications one after another, each
/// a set-up (timed on its own) and then `rounds` timed run_round calls,
/// until the rounds have filled the window and number at least `min_ops`.
/// Every replication has the same length, so round samples come from the
/// same round indices on every run. The first `min_reps` replications
/// always run: they are the deterministic prefix the digest and the layer
/// counters are taken over.
struct LiveParams {
  Shape shape;
  int rounds = 1;
  std::size_t min_reps = 1;
  std::size_t min_ops = 0;  ///< round samples a p90 needs
};

void run_live(const Options& opt, const LiveParams& p, Spans& spans,
              Output& out, ObsTraces& traces) {
  constexpr std::size_t kMaxReplications = 1000;
  const auto seeds =
      runtime::ExperimentSpec::seed_range(opt.seed, kMaxReplications);
  Replica probed;  // traced runs: replication 0, probed after the window
  std::vector<std::map<std::string, double>> counts;
  double window_s = 0;
  double convicted = 0;
  std::size_t ops = 0;
  std::size_t j = 0;
  for (; j < kMaxReplications &&
         (j < p.min_reps || window_s < opt.seconds || ops < p.min_ops);
       ++j) {
    const auto id = static_cast<std::uint32_t>(j);
    auto cfg = make_config(p.shape, seeds[j], p.rounds);
    // The decode/consume probe replays this replication's audit log;
    // recording never perturbs the run (the digest shows it).
    cfg.record_audit = opt.traced() && j == 0;
    Replica r;
    try {
      r = start_replica(cfg, opt.traced(), id, spans);
      out.samples["setup_s"].push_back(r.setup_s);
      out.calibrate();
      obs::Scope scope{r.obs.get()};
      for (int k = 0; k < p.rounds; ++k) {
        const double s = spans.time("TrustExperiment::run_round", id,
                                    [&] { r.exp->run_round(); });
        out.samples["op_ms"].push_back(s * 1e3);
        out.calibrate();
        window_s += s;
        ++ops;
        out.check(true, "");
      }
    } catch (const std::exception& e) {
      out.check(false, "replication " + std::to_string(j) + ": " + e.what());
      continue;
    }
    const auto& det = r.exp->detector();
    const auto v = tally(det.reports(), r.exp->attacker());
    out.check(v.convicted, "attacker convicted, replication " +
                               std::to_string(j));
    out.check(v.false_convictions == 0,
              "no false convictions, replication " + std::to_string(j));
    convicted += v.convicted ? 1.0 : 0.0;
    if (j < p.min_reps) {
      out.digest.add(core::verdict_csv(det.reports()));
      out.digest.add(core::trust_csv(det.trust_store()));
      if (opt.traced()) counts.push_back(replica_counts(r));
    }
    if (opt.traced() && j == 0) probed = std::move(r);
  }
  out.values["detect_rate"] = convicted / static_cast<double>(j);
  if (!opt.traced() || !probed.exp) return;

  finish_counts(counts, out);
  probe_network(probed.exp->network(), 0, spans, out);
  ReplayProbe replay;
  replay.run(probed.exp->audit_log(), 0, spans);
  replay.report(out);
  traces.emplace_back(0, probed.obs->trace());
  run_ladder(p.shape, seeds[0], spans, out);
}

/// replay-corpus: set-up records a corpus of audit logs from live runs (and
/// records it again, to time set-up several times and check the bytes
/// repeat); the timed window replays the whole corpus through
/// AuditStreamReader -> pipeline_from_header -> DetectionPipeline::consume,
/// pass after pass.
struct ReplayParams {
  Shape spoof;
  std::size_t spoof_logs = 1;
  int spoof_rounds = 1;
  Shape grayhole;
  std::size_t grayhole_logs = 1;
  int grayhole_rounds = 1;
  int idle_rounds = 2;
  std::size_t recordings = 1;
  std::size_t min_ops = 0;
};

struct CorpusLog {
  std::vector<std::uint8_t> bytes;
  std::string verdicts;  ///< the live run's verdict CSV
  std::string trust;     ///< the live run's trust CSV
  bool convicted = false;
  std::size_t false_convictions = 0;
};

/// A recorded corpus plus, for traced runs, the live replications behind it.
struct Corpus {
  std::vector<CorpusLog> logs;
  std::vector<Replica> live;
};

Corpus record_corpus(const Options& opt, const ReplayParams& p,
                     std::uint32_t recording, Spans& spans) {
  Corpus corpus;
  const auto seeds = runtime::ExperimentSpec::seed_range(
      opt.seed, p.spoof_logs + p.grayhole_logs);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const bool spoof = i < p.spoof_logs;
    const int rounds = spoof ? p.spoof_rounds : p.grayhole_rounds;
    auto cfg = make_config(spoof ? p.spoof : p.grayhole, seeds[i], rounds);
    cfg.record_audit = true;
    auto r = start_replica(cfg, opt.traced(), recording, spans);
    obs::Scope scope{r.obs.get()};
    auto& exp = *r.exp;
    for (int k = 0; k < rounds; ++k)
      spans.time("TrustExperiment::run_round", recording,
                 [&] { exp.run_round(); });
    exp.cease_attack();
    for (int k = 0; k < p.idle_rounds; ++k)
      spans.time("TrustExperiment::run_idle_round", recording,
                 [&] { exp.run_idle_round(); });
    // Flush the log tail into the live pipeline, as manet_detect record
    // does, so the live and replayed pipelines saw the same frames.
    exp.detector().feed_log_growth();
    CorpusLog log;
    log.bytes = exp.audit_log();
    log.verdicts = core::verdict_csv(exp.detector().reports());
    log.trust = core::trust_csv(exp.detector().trust_store());
    const auto v = tally(exp.detector().reports(), exp.attacker());
    log.convicted = v.convicted;
    log.false_convictions = v.false_convictions;
    corpus.logs.push_back(std::move(log));
    if (opt.traced()) corpus.live.push_back(std::move(r));
  }
  return corpus;
}

void run_replay(const Options& opt, const ReplayParams& p, Spans& spans,
                Output& out, ObsTraces& traces) {
  Corpus corpus;
  for (std::size_t k = 0; k < p.recordings; ++k) {
    Corpus again;
    const double s =
        spans.time("record_corpus", static_cast<std::uint32_t>(k),
                   [&] { again = record_corpus(opt, p, k, spans); });
    out.samples["setup_s"].push_back(s);
    out.calibrate();
    if (k == 0) {
      corpus = std::move(again);
      continue;
    }
    bool same = again.logs.size() == corpus.logs.size();
    for (std::size_t i = 0; same && i < corpus.logs.size(); ++i)
      same = again.logs[i].bytes == corpus.logs[i].bytes;
    out.check(same, "corpus recording " + std::to_string(k) +
                        " repeats the first byte for byte");
  }

  double convicted = 0;
  for (std::size_t i = 0; i < corpus.logs.size(); ++i) {
    const auto& log = corpus.logs[i];
    out.check(log.convicted,
              "recorded log " + std::to_string(i) + " convicts the attacker");
    out.check(log.false_convictions == 0, "recorded log " + std::to_string(i) +
                                              " has no false convictions");
    convicted += log.convicted ? 1.0 : 0.0;
    out.digest.add(log.verdicts);
    out.digest.add(log.trust);
  }
  out.values["detect_rate"] =
      convicted / static_cast<double>(corpus.logs.size());

  // Every pass's pipelines are kept until the pass's clock has stopped, so
  // the CSV comparison on the checked passes stays outside the timing.
  std::vector<core::DetectionPipeline> pipelines;
  pipelines.reserve(corpus.logs.size());
  std::size_t passes = 0;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < opt.seconds || passes < p.min_ops) {
    pipelines.clear();
    double pass_s = 0;
    try {
      pass_s = spans.time(
          "replay.pass", static_cast<std::uint32_t>(passes), [&] {
            for (const auto& log : corpus.logs) {
              core::AuditStreamReader reader{log.bytes};
              auto pipeline = core::pipeline_from_header(reader.header());
              core::AuditEvent event;
              while (reader.next(event)) pipeline.consume(event);
              pipelines.push_back(std::move(pipeline));
            }
          });
    } catch (const std::exception& e) {
      out.check(false, std::string{"replay: "} + e.what());
      break;
    }
    out.check(true, "");
    out.samples["op_ms"].push_back(pass_s * 1e3);
    out.calibrate();
    // The first pass and every 256th are compared with the live CSVs.
    if (passes++ % 256 == 0) {
      for (std::size_t i = 0; i < corpus.logs.size(); ++i) {
        const auto& log = corpus.logs[i];
        out.check(core::verdict_csv(pipelines[i].reports()) == log.verdicts &&
                      core::trust_csv(pipelines[i].trust_store()) == log.trust,
                  "replayed CSVs of log " + std::to_string(i) +
                      " equal the live run's");
      }
    }
  }
  if (!opt.traced()) return;

  std::vector<std::map<std::string, double>> counts;
  ReplayProbe replay;
  for (std::size_t i = 0; i < corpus.live.size(); ++i) {
    auto& r = corpus.live[i];
    counts.push_back(replica_counts(r));
    const auto rep = static_cast<std::uint32_t>(i);
    probe_network(r.exp->network(), rep, spans, out);
    replay.run(corpus.logs[i].bytes, rep, spans);
    traces.emplace_back(i, r.obs->trace());
  }
  finish_counts(counts, out);
  replay.report(out);
  run_ladder(p.spoof, runtime::ExperimentSpec::seed_range(opt.seed, 1)[0],
             spans, out);
}

/// sweep-table-a: the Table A sweep through runtime::Runner on one thread,
/// as `manet_experiments --sweep table-a --threads 1` runs it, in batches
/// of `batch_seeds` seeds that continue one seed_range sequence until the
/// window closes. Replications are timed from the Runner's progress
/// callback. The first `checked_batches` batches are the deterministic
/// prefix the digest and detect_rate are taken over. Set-up times
/// TrustExperiment::setup (construction and first convergence) for the
/// first tasks' configs.
struct SweepParams {
  std::size_t batch_seeds = 1;
  std::size_t checked_batches = 1;
  std::size_t setups = 1;
  std::size_t min_ops = 0;
};

void run_sweep(const Options& opt, const SweepParams& p, Spans& spans,
               Output& out, ObsTraces& traces) {
  runtime::ExperimentSpec spec;
  spec.node_counts = {16};
  spec.attacker_fractions = {0.0, 0.15, 0.30, 0.45};
  spec.rounds = 12;
  constexpr std::size_t kMaxBatches = 1024;
  const auto seeds = runtime::ExperimentSpec::seed_range(
      opt.seed, kMaxBatches * p.batch_seeds);
  const auto batch = [&](std::size_t b) {
    const auto first = seeds.begin() + static_cast<std::ptrdiff_t>(
                                           b * p.batch_seeds);
    return std::vector<std::uint64_t>(
        first, first + static_cast<std::ptrdiff_t>(p.batch_seeds));
  };
  spec.seeds = batch(0);
  const auto tasks = spec.expand();

  // Traced runs keep task 0's replication (recording its audit log) for
  // the layer counters and probes.
  Replica probe;
  for (std::size_t k = 0; k < p.setups && k < tasks.size(); ++k) {
    auto cfg = tasks[k].to_config();
    const bool keep = opt.traced() && k == 0;
    cfg.record_audit = keep;
    try {
      auto r = start_replica(cfg, keep, static_cast<std::uint32_t>(k), spans);
      out.samples["setup_s"].push_back(r.setup_s);
      out.calibrate();
      if (keep) probe = std::move(r);
    } catch (const std::exception& e) {
      out.check(false, std::string{"setup: "} + e.what());
    }
  }

  runtime::Runner runner{runtime::Runner::Config{1}};
  Clock::time_point last;
  std::uint32_t batch_id = 0;
  runner.set_progress([&](std::size_t, std::size_t) {
    const auto now = Clock::now();
    out.samples["op_ms"].push_back(
        std::chrono::duration<double, std::milli>(now - last).count());
    spans.record("runtime.replication", batch_id, last, now);
    // Between replications, so the next one's interval excludes it.
    out.calibrate();
    last = Clock::now();
  });
  std::vector<runtime::ReplicationResult> prefix;
  std::size_t ops = 0;
  const auto t0 = Clock::now();
  for (std::size_t b = 0;
       b < kMaxBatches && (b < p.checked_batches ||
                           seconds_since(t0) < opt.seconds || ops < p.min_ops);
       ++b) {
    spec.seeds = batch(b);
    batch_id = static_cast<std::uint32_t>(b);
    std::vector<runtime::ReplicationResult> results;
    try {
      spans.time("Runner::run", batch_id, [&] {
        last = Clock::now();
        results = runner.run(spec);
      });
    } catch (const std::exception& e) {
      out.check(false, std::string{"sweep: "} + e.what());
      break;
    }
    ops += results.size();
    for (const auto& r : results) {
      const bool ok = r.false_convictions == 0 && r.invariant_violations == 0;
      std::string what;
      if (!ok) {
        what = "no false convictions, seed ";
        what += std::to_string(r.seed);
      }
      out.check(ok, what);
    }
    if (b < p.checked_batches)
      prefix.insert(prefix.end(), results.begin(), results.end());
  }

  std::vector<runtime::AggregateRow> rows;
  std::string csv;
  spans.time("Aggregator::aggregate", 0, [&] {
    rows = runtime::Aggregator{}.aggregate(prefix);
    csv = runtime::Aggregator::to_csv(rows);
  });
  out.digest.add(csv);
  double convicting = 0;
  double total = 0;
  for (const auto& row : rows) {
    convicting += row.detection_rate * static_cast<double>(row.replications);
    total += static_cast<double>(row.replications);
  }
  out.values["detect_rate"] = total > 0 ? convicting / total : 0.0;
  out.check(rows.size() == spec.attacker_fractions.size() &&
                rows.front().detection_rate == 1.0,
            "every liar-free replication convicts the attacker");
  for (const auto& r : prefix) {
    char line[96];
    std::snprintf(line, sizeof line, "%llu,%d,%d,%.17g",
                  static_cast<unsigned long long>(r.seed),
                  static_cast<int>(r.final_verdict), r.conviction_round,
                  r.attacker_trust);
    out.digest.add(line);
  }
  if (!opt.traced() || !probe.exp) return;

  auto& exp = *probe.exp;
  {
    obs::Scope scope{probe.obs.get()};
    for (int k = 0; k < spec.rounds; ++k)
      spans.time("TrustExperiment::run_round", 0, [&] { exp.run_round(); });
  }
  finish_counts({replica_counts(probe)}, out);
  probe_network(exp.network(), 0, spans, out);
  ReplayProbe replay;
  replay.run(exp.audit_log(), 0, spans);
  replay.report(out);
  traces.emplace_back(0, probe.obs->trace());
  const auto& point = tasks.front().point;
  run_ladder(
      Shape{point.num_nodes, point.attacker_fraction, AttackKind::kSpoof},
      tasks.front().seed, spans, out);
}

// -------------------------------------------------------------------- main

void usage() {
  std::fprintf(stderr,
               "usage: manet_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace DIR] [--smoke]\n"
               "workloads: mesh-spoof grid-grayhole replay-corpus "
               "sweep-table-a\n");
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(opt.seconds >= 0)) return false;
    } else if (flag == "--trace") {
      opt.trace_dir = v;
    } else {
      return false;
    }
  }
  return !opt.workload.empty();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f{path, std::ios::binary | std::ios::trunc};
  f << text;
  return static_cast<bool>(f);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage();
    return 2;
  }
  const bool smoke = opt.smoke;
  Spans spans{opt.traced()};
  Output out;
  ObsTraces traces;
  try {
    if (opt.workload == "mesh-spoof") {
      // The paper's §V cluster: every node in range, node 1 advertises a
      // phantom link, a quarter of the bystanders lie.
      run_live(opt,
               smoke ? LiveParams{{24, 0.25, AttackKind::kSpoof}, 6, 2, 0}
                     : LiveParams{{64, 0.25, AttackKind::kSpoof}, 70, 2, 100},
               spans, out, traces);
    } else if (opt.workload == "grid-grayhole") {
      // Multi-hop 150 m grid: node 1 is a WILL_ALWAYS blackhole, caught by
      // the forwarding audit.
      run_live(opt,
               smoke
                   ? LiveParams{{36, 0.0, AttackKind::kGrayhole}, 6, 2, 0}
                   : LiveParams{{100, 0.0, AttackKind::kGrayhole}, 25, 2, 100},
               spans, out, traces);
    } else if (opt.workload == "replay-corpus") {
      run_replay(opt,
                 smoke ? ReplayParams{{16, 0.25, AttackKind::kSpoof}, 1, 12,
                                      {36, 0.0, AttackKind::kGrayhole}, 1, 8,
                                      2, 2, 0}
                       : ReplayParams{{24, 0.25, AttackKind::kSpoof}, 4, 25,
                                      {36, 0.0, AttackKind::kGrayhole}, 2, 12,
                                      4, 3, 100},
                 spans, out, traces);
    } else if (opt.workload == "sweep-table-a") {
      run_sweep(opt,
                smoke ? SweepParams{2, 1, 2, 0} : SweepParams{4, 8, 8, 100},
                spans, out, traces);
    } else {
      std::fprintf(stderr, "manet_bench: unknown workload %s\n",
                   opt.workload.c_str());
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    out.check(false, std::string{"workload: "} + e.what());
  }

  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  out.values["peak_rss_mb"] = static_cast<double>(usage_now.ru_maxrss) / 1024.0;

  std::string self_ms = "{}";
  if (opt.traced()) {
    const auto base = opt.trace_dir + "/" + opt.workload;
    if (!write_file(base + ".json", spans.chrome_json()) ||
        !write_file(base + ".obs.json", obs::trace_json_multi(traces)))
      out.check(false, "cannot write traces under " + opt.trace_dir);
    self_ms = json_values(spans.self_ms());
  }

  std::string failures = "[";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    if (i) failures += ',';
    failures += json_string(out.failures[i]);
  }
  failures += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"traced\":%s,\"attempted\":%llu,"
      "\"failed\":%llu,\"failures\":%s,\"digest\":\"%s\",\"samples\":%s,"
      "\"values\":%s,\"layers\":%s,\"layer_samples\":%s,\"self_ms\":%s}\n",
      json_string(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed),
      opt.traced() ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), failures.c_str(),
      out.digest.hex().c_str(), json_samples(out.samples).c_str(),
      json_values(out.values).c_str(), json_values(out.layers).c_str(),
      json_samples(out.layer_samples).c_str(), self_ms.c_str());
  return 0;
}
