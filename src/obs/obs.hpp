#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/time.hpp"
#include "stats/histogram.hpp"

/// Deterministic observability layer: a metrics registry (named counters,
/// gauges, histograms) and a sim-time flight recorder, threaded through the
/// whole stack via a thread-local binding so the instrumented code never
/// holds an obs reference, never draws from a simulation RNG, and — with no
/// Context bound — compiles down to one predicted-not-taken branch per
/// record site (pinned by bench/micro_obs.cpp's BM_CounterInc/disabled).
///
/// Determinism contract: everything recorded is a pure function of the run
/// (sim-time stamps, integer counts); no wall-clock time is recorded.
/// Counters merge by sum, gauges by max, histograms bin-wise — all
/// commutative, so the merged snapshot is identical for any worker-thread
/// or shard-lane interleaving of the same run.
namespace manet::obs {

/// Hot-path counters: enum-indexed into a per-thread array so a record is
/// `shard->hot[i] += n` with zero name lookup. Exposed in Prometheus text
/// under the names in hot_name().
enum class Hot : std::uint32_t {
  kMediumBatchedBroadcasts,  ///< broadcasts (all share per-cell snapshots)
  kMediumUnicasts,           ///< routed unicast frames
  kRouteRecomputes,          ///< olsr::Agent routing recomputes that changed
  kMprRecomputes,            ///< olsr::Agent MPR-set recomputes that changed
  kRouteRuns,                ///< routing BFS executions (skips excluded)
  kRouteSkips,               ///< routing updates settled without a BFS
  kMprRuns,                  ///< §8.3.1 heuristic executions (inputs moved)
  kGraphArcUpdates,          ///< knowledge-graph arcs added/removed by patches
  kMprRowUpdates,            ///< MPR reach rows rewritten by table patches
  kFramesDecoded,            ///< received OLSR frames parsed (once per frame)
  kHelloEntries,             ///< addresses listed in received HELLOs
  kPipelineLines,            ///< audit-stream kLine frames consumed
  kPipelineRounds,           ///< audit-stream kRound frames consumed
  kPipelineDecays,           ///< audit-stream kDecay frames consumed
  kPipelineForwardAudits,    ///< audit-stream kForwardAudit frames consumed
  kPipelineReports,          ///< detection reports emitted
  kPipelineConvictions,      ///< kIntruder verdicts emitted
  kPipelineSuppressed,       ///< convictions downgraded by the liveness gate
  kInvestigationsOpened,     ///< investigations launched by the detector
  kLogRecords,               ///< audit-log records appended to a LogStore
  /// audit-log records rendered by format_record or parsed by parse_record
  kLogTextRecords,
  kLogRecordsIndexed,        ///< audit-log records read by a core::LogIndex
  kLogIndexRestarts,         ///< LogIndex rebuilds after a retention drop
  kCheckpointSaves,
  kCheckpointRestores,
  kFaultEvents,              ///< fault-plan events applied by the injector
  kInvariantViolations,      ///< safety rules broken (exit-3 surface)
  kPsimWindows,              ///< (lane, window) executions under psim
  kCount,
};

/// Prometheus-style metric name of a hot counter (e.g.
/// "manet_pipeline_rounds_total").
const char* hot_name(Hot h);

/// Interned span/instant names of the flight recorder. Fixed enum — no
/// string interning on a hot path, and the Chrome trace dump maps them
/// back through span_name().
enum class SpanName : std::uint32_t {
  kSetupConverge,       ///< build_network + OLSR warm-up drive
  kRound,               ///< one investigation round (attack active)
  kIdleRound,           ///< one idle forgetting round
  kInvestigation,       ///< async: trigger fired -> query -> verdict
  kConviction,          ///< instant: kIntruder verdict emitted
  kSuppressed,          ///< instant: conviction downgraded (liveness gate)
  kRoutingRecompute,    ///< instant: routing table changed
  kPipelineRound,       ///< instant: one kRound frame consumed
  kCheckpointSave,
  kCheckpointRestore,
  kFaultEvent,          ///< instant: one fault-plan event applied
  kInvariantViolation,  ///< instant: safety rule broken
  kPsimWindow,          ///< one conservative window on one shard lane
  kCount,
};

/// Trace-dump name of a span (e.g. "investigation").
const char* span_name(SpanName n);

/// Chrome trace_event phase of a recorded event.
enum class EventPhase : std::uint8_t {
  kComplete,    ///< "X": [begin, end] span
  kInstant,     ///< "i": point event at begin
  kAsyncBegin,  ///< "b": start of an id-correlated async span
  kAsyncEnd,    ///< "e": end of an id-correlated async span
};

/// One flight-recorder entry. All timestamps are sim-time microseconds
/// (deterministic).
struct TraceEvent {
  std::int64_t begin_us = 0;
  std::int64_t end_us = 0;
  std::uint64_t id = 0;  ///< async correlation id / free argument
  SpanName name = SpanName::kCount;
  EventPhase phase = EventPhase::kInstant;
  std::uint32_t lane = 0;  ///< shard lane (deterministic), 0 sequential
};

/// Bounded ring of TraceEvents: the newest `capacity` events survive, the
/// rest are dropped oldest-first with a running drop count — so a crash
/// dump (exit-3 paths) always holds the events leading up to the failure.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity);

  void record(const TraceEvent& event);
  std::size_t capacity() const { return ring_.size(); }
  std::size_t size() const { return size_; }
  /// Events overwritten by ring wrap since construction.
  std::uint64_t dropped() const { return dropped_; }
  /// Retained events, oldest first.
  std::vector<TraceEvent> events() const;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  ///< next write position
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

/// What kind of metric a registered name denotes.
enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// One metric definition in a Context's intern table.
struct MetricDef {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint32_t slot = 0;  ///< index within the kind's per-shard vector
  // Histogram shape (kHistogram only).
  double lo = 0.0, hi = 1.0;
  std::size_t bins = 1;
};

/// Per-thread recording shard: the hot counter array, the dynamic metric
/// vectors, and this thread's slice of the flight-recorder ring. Never
/// locked on the record path — each worker thread owns exactly one.
struct Shard {
  explicit Shard(std::size_t ring_capacity) : recorder{ring_capacity} {}

  std::array<std::uint64_t, static_cast<std::size_t>(Hot::kCount)> hot{};
  std::vector<std::uint64_t> counters;
  /// (value, was-set): an untouched gauge slot contributes nothing.
  std::vector<std::pair<double, bool>> gauges;
  std::vector<std::unique_ptr<stats::Histogram>> histograms;
  FlightRecorder recorder;
};

/// Deterministic merged view of a Context at a barrier: metric names with
/// values, sorted by name, plus the merged trace. Counters sum, gauges
/// max, histograms merge bin-wise — commutative folds, so the snapshot is
/// byte-identical for any thread count.
class MetricsSnapshot {
 public:
  /// One named sample.
  struct Counter {
    std::string name;
    std::uint64_t value = 0;
  };
  /// One named gauge sample.
  struct Gauge {
    std::string name;
    double value = 0.0;
  };
  /// One named histogram with its merged bins.
  struct Hist {
    std::string name;
    stats::Histogram histogram{0.0, 1.0, 1};
  };

  std::vector<Counter> counters;  ///< sorted by name
  std::vector<Gauge> gauges;      ///< sorted by name
  std::vector<Hist> histograms;   ///< sorted by name

  /// Folds `other` in: counters sum, gauges max, histograms merge.
  /// Metrics absent on one side are carried through.
  void merge(const MetricsSnapshot& other);

  /// Prometheus text exposition (HELP/TYPE + samples; histograms as
  /// cumulative _bucket/_sum/_count series). `header` lines (already
  /// "#"-prefixed, e.g. a run manifest) are emitted first.
  std::string to_prometheus(const std::string& header = {}) const;

  /// Flat deterministic "name value" listing of every counter whose name
  /// starts with `prefix` — the record-vs-replay diff surface of
  /// manet_detect.
  std::string counters_text(const std::string& prefix = {}) const;

  /// Value of a named counter (hot counters use hot_name()); 0 if absent.
  std::uint64_t counter_value(const std::string& name) const;
};

/// One replication's (or one CLI run's) observability arena: owns the
/// per-thread shards, the metric intern table, and the trace
/// configuration. Created only when the run asked for metrics or tracing;
/// instrumented code reaches it through the thread-local Scope binding and
/// records nothing when no Context is bound.
class Context {
 public:
  /// Observability knobs of one Context.
  struct Config {
    bool tracing = false;  ///< record flight-recorder events
    /// Flight-recorder ring capacity per recording thread.
    std::size_t ring_capacity = 8192;
  };

  Context() : Context(Config{}) {}
  explicit Context(Config config) : config_{config} {}

  const Config& config() const { return config_; }

  /// The calling thread's shard, created on first use (locked; record
  /// paths cache the result in the Scope binding).
  Shard& bind_thread();

  /// Interns a metric definition (idempotent by name) and returns its
  /// slot. Throws std::invalid_argument on a kind/shape conflict.
  std::uint32_t intern(const std::string& name, MetricKind kind,
                       double lo = 0.0, double hi = 1.0, std::size_t bins = 1);

  /// Merged deterministic snapshot of every shard (see MetricsSnapshot).
  MetricsSnapshot snapshot() const;

  /// Merged trace of every shard's ring, sorted by the deterministic key
  /// (begin, end, name, phase, lane, id); drop counts summed.
  std::vector<TraceEvent> trace() const;
  /// Total events lost to ring wrap across all shards.
  std::uint64_t trace_dropped() const;

 private:
  Config config_;
  mutable std::mutex mutex_;
  std::vector<std::pair<std::thread::id, std::unique_ptr<Shard>>> shards_;
  std::vector<MetricDef> defs_;
  std::uint32_t counter_slots_ = 0;
  std::uint32_t gauge_slots_ = 0;
  std::uint32_t histogram_slots_ = 0;
};

/// The thread's current binding: which Context (if any) records for this
/// thread, its pre-resolved Shard, and the deterministic lane id stamped
/// on trace events. All record helpers read this and no-op on null.
struct TlsBinding {
  Context* ctx = nullptr;
  Shard* shard = nullptr;
  std::uint32_t lane = 0;
  bool tracing = false;
};

namespace detail {
extern thread_local TlsBinding tls;
}

/// RAII binding of a Context (or nullptr) to the current thread. Nests:
/// the previous binding is restored on destruction. The psim engine opens
/// one per lane execution so worker threads inherit the replication's
/// Context with their shard lane stamped on every event.
class Scope {
 public:
  explicit Scope(Context* ctx, std::uint32_t lane = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  TlsBinding saved_;
};

/// True when a Context is bound to this thread (metrics are recording).
inline bool active() { return detail::tls.shard != nullptr; }

/// Records `n` into a hot counter; single predicted branch when unbound.
inline void hit(Hot h, std::uint64_t n = 1) {
  if (Shard* s = detail::tls.shard)
    s->hot[static_cast<std::size_t>(h)] += n;
}

namespace detail {
void record_event(SpanName name, EventPhase phase, sim::Time begin,
                  sim::Time end, std::uint64_t id);
}

/// Records a completed [begin, end] sim-time span.
inline void span(SpanName name, sim::Time begin, sim::Time end,
                 std::uint64_t id = 0) {
  if (detail::tls.tracing)
    detail::record_event(name, EventPhase::kComplete, begin, end, id);
}

/// Records an instant event at sim-time `at`.
inline void instant(SpanName name, sim::Time at, std::uint64_t id = 0) {
  if (detail::tls.tracing)
    detail::record_event(name, EventPhase::kInstant, at, at, id);
}

/// Opens an id-correlated async span (e.g. one investigation lifecycle).
inline void async_begin(SpanName name, sim::Time at, std::uint64_t id) {
  if (detail::tls.tracing)
    detail::record_event(name, EventPhase::kAsyncBegin, at, at, id);
}

/// Closes the async span opened under (name, id).
inline void async_end(SpanName name, sim::Time at, std::uint64_t id) {
  if (detail::tls.tracing)
    detail::record_event(name, EventPhase::kAsyncEnd, at, at, id);
}

/// Named counter handle bound to the interning Context. Safe to copy;
/// records only while its Context is the thread's bound Context.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) const;

 private:
  friend Counter counter(const std::string& name);
  explicit Counter(std::uint32_t slot) : slot_{slot} {}
  std::uint32_t slot_ = UINT32_MAX;
};

/// Named gauge handle (merge-by-max across shards).
class Gauge {
 public:
  Gauge() = default;
  void set(double value) const;

 private:
  friend Gauge gauge(const std::string& name);
  explicit Gauge(std::uint32_t slot) : slot_{slot} {}
  std::uint32_t slot_ = UINT32_MAX;
};

/// Named histogram handle (fixed [lo, hi) x bins shape, merged bin-wise).
class HistogramHandle {
 public:
  HistogramHandle() = default;
  void observe(double x) const;

 private:
  friend HistogramHandle histogram(const std::string& name, double lo,
                                   double hi, std::size_t bins);
  HistogramHandle(std::uint32_t slot, double lo, double hi, std::size_t bins)
      : slot_{slot}, lo_{lo}, hi_{hi}, bins_{bins} {}
  std::uint32_t slot_ = UINT32_MAX;
  double lo_ = 0.0, hi_ = 1.0;
  std::size_t bins_ = 1;
};

/// Interns `name` as a counter in the thread's bound Context; a dead
/// handle (every operation a no-op) when none is bound.
Counter counter(const std::string& name);
/// Interns `name` as a gauge in the thread's bound Context.
Gauge gauge(const std::string& name);
/// Interns `name` as a histogram over [lo, hi) with `bins` bins.
HistogramHandle histogram(const std::string& name, double lo, double hi,
                          std::size_t bins);

/// Chrome trace_event JSON ("traceEvents" array form) of a merged trace.
/// ts/dur are sim-time microseconds; pid is `pid` (task index under a
/// sweep), tid the deterministic lane.
std::string trace_json(const std::vector<TraceEvent>& events,
                       std::uint64_t pid = 0);

/// Multi-process variant: one (pid, events) group per replication,
/// concatenated into a single JSON document.
std::string trace_json_multi(
    const std::vector<std::pair<std::uint64_t, std::vector<TraceEvent>>>&
        groups);

}  // namespace manet::obs
