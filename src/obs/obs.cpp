#include "obs/obs.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <tuple>

namespace manet::obs {

namespace detail {
thread_local TlsBinding tls;
}  // namespace detail

const char* hot_name(Hot h) {
  switch (h) {
    case Hot::kMediumBatchedBroadcasts:
      return "manet_medium_batched_broadcasts_total";
    case Hot::kMediumUnicasts:
      return "manet_medium_unicasts_total";
    case Hot::kRouteRecomputes:
      return "manet_olsr_route_recomputes_total";
    case Hot::kMprRecomputes:
      return "manet_olsr_mpr_recomputes_total";
    case Hot::kRouteRuns:
      return "manet_olsr_route_runs_total";
    case Hot::kRouteSkips:
      return "manet_olsr_route_skips_total";
    case Hot::kMprRuns:
      return "manet_olsr_mpr_runs_total";
    case Hot::kGraphArcUpdates:
      return "manet_olsr_graph_arc_updates_total";
    case Hot::kMprRowUpdates:
      return "manet_olsr_mpr_row_updates_total";
    case Hot::kFramesDecoded:
      return "manet_olsr_frames_decoded_total";
    case Hot::kHelloEntries:
      return "manet_olsr_hello_entries_total";
    case Hot::kPipelineLines:
      return "manet_pipeline_lines_total";
    case Hot::kPipelineRounds:
      return "manet_pipeline_rounds_total";
    case Hot::kPipelineDecays:
      return "manet_pipeline_decays_total";
    case Hot::kPipelineForwardAudits:
      return "manet_pipeline_forward_audits_total";
    case Hot::kPipelineReports:
      return "manet_pipeline_reports_total";
    case Hot::kPipelineConvictions:
      return "manet_pipeline_convictions_total";
    case Hot::kPipelineSuppressed:
      return "manet_pipeline_suppressed_convictions_total";
    case Hot::kInvestigationsOpened:
      return "manet_investigations_opened_total";
    case Hot::kLogRecords:
      return "manet_logging_records_total";
    case Hot::kLogTextRecords:
      return "manet_logging_text_records_total";
    case Hot::kLogRecordsIndexed:
      return "manet_log_records_indexed_total";
    case Hot::kLogIndexRestarts:
      return "manet_log_index_restarts_total";
    case Hot::kCheckpointSaves:
      return "manet_checkpoint_saves_total";
    case Hot::kCheckpointRestores:
      return "manet_checkpoint_restores_total";
    case Hot::kFaultEvents:
      return "manet_fault_events_total";
    case Hot::kInvariantViolations:
      return "manet_invariant_violations_total";
    case Hot::kPsimWindows:
      return "manet_psim_windows_total";
    case Hot::kCount:
      break;
  }
  return "manet_unknown_total";
}

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kSetupConverge:
      return "setup_converge";
    case SpanName::kRound:
      return "round";
    case SpanName::kIdleRound:
      return "idle_round";
    case SpanName::kInvestigation:
      return "investigation";
    case SpanName::kConviction:
      return "conviction";
    case SpanName::kSuppressed:
      return "suppressed_conviction";
    case SpanName::kRoutingRecompute:
      return "routing_recompute";
    case SpanName::kPipelineRound:
      return "pipeline_round";
    case SpanName::kCheckpointSave:
      return "checkpoint_save";
    case SpanName::kCheckpointRestore:
      return "checkpoint_restore";
    case SpanName::kFaultEvent:
      return "fault_event";
    case SpanName::kInvariantViolation:
      return "invariant_violation";
    case SpanName::kPsimWindow:
      return "psim_window";
    case SpanName::kCount:
      break;
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 1)) {}

void FlightRecorder::record(const TraceEvent& event) {
  if (size_ == ring_.size()) ++dropped_;  // overwriting the oldest entry
  ring_[head_] = event;
  head_ = (head_ + 1) % ring_.size();
  if (size_ < ring_.size()) ++size_;
}

std::vector<TraceEvent> FlightRecorder::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  const std::size_t start = (head_ + ring_.size() - size_) % ring_.size();
  for (std::size_t i = 0; i < size_; ++i)
    out.push_back(ring_[(start + i) % ring_.size()]);
  return out;
}

Shard& Context::bind_thread() {
  const auto self = std::this_thread::get_id();
  std::lock_guard lock{mutex_};
  for (auto& [id, shard] : shards_)
    if (id == self) return *shard;
  shards_.emplace_back(self, std::make_unique<Shard>(config_.ring_capacity));
  return *shards_.back().second;
}

std::uint32_t Context::intern(const std::string& name, MetricKind kind,
                              double lo, double hi, std::size_t bins) {
  std::lock_guard lock{mutex_};
  for (const auto& def : defs_) {
    if (def.name != name) continue;
    if (def.kind != kind ||
        (kind == MetricKind::kHistogram &&
         (def.lo != lo || def.hi != hi || def.bins != bins)))
      throw std::invalid_argument{"obs: metric '" + name +
                                  "' re-registered with a different shape"};
    return def.slot;
  }
  MetricDef def;
  def.name = name;
  def.kind = kind;
  def.lo = lo;
  def.hi = hi;
  def.bins = bins;
  switch (kind) {
    case MetricKind::kCounter:
      def.slot = counter_slots_++;
      break;
    case MetricKind::kGauge:
      def.slot = gauge_slots_++;
      break;
    case MetricKind::kHistogram:
      def.slot = histogram_slots_++;
      break;
  }
  defs_.push_back(def);
  return def.slot;
}

MetricsSnapshot Context::snapshot() const {
  std::lock_guard lock{mutex_};
  MetricsSnapshot snap;

  // Hot counters first, under their fixed names.
  std::array<std::uint64_t, static_cast<std::size_t>(Hot::kCount)> hot{};
  for (const auto& [id, shard] : shards_)
    for (std::size_t i = 0; i < hot.size(); ++i) hot[i] += shard->hot[i];
  for (std::size_t i = 0; i < hot.size(); ++i)
    snap.counters.push_back(
        MetricsSnapshot::Counter{hot_name(static_cast<Hot>(i)), hot[i]});

  for (const auto& def : defs_) {
    switch (def.kind) {
      case MetricKind::kCounter: {
        std::uint64_t sum = 0;
        for (const auto& [id, shard] : shards_)
          if (def.slot < shard->counters.size()) sum += shard->counters[def.slot];
        snap.counters.push_back(MetricsSnapshot::Counter{def.name, sum});
        break;
      }
      case MetricKind::kGauge: {
        double value = 0.0;
        bool set = false;
        for (const auto& [id, shard] : shards_) {
          if (def.slot >= shard->gauges.size()) continue;
          const auto& [v, was_set] = shard->gauges[def.slot];
          if (!was_set) continue;
          value = set ? std::max(value, v) : v;
          set = true;
        }
        if (set) snap.gauges.push_back(MetricsSnapshot::Gauge{def.name, value});
        break;
      }
      case MetricKind::kHistogram: {
        stats::Histogram merged{def.lo, def.hi, def.bins};
        for (const auto& [id, shard] : shards_) {
          if (def.slot >= shard->histograms.size()) continue;
          if (const auto* h = shard->histograms[def.slot].get())
            merged.merge(*h);
        }
        snap.histograms.push_back(MetricsSnapshot::Hist{def.name, merged});
        break;
      }
    }
  }

  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

std::vector<TraceEvent> Context::trace() const {
  std::lock_guard lock{mutex_};
  std::vector<TraceEvent> out;
  for (const auto& [id, shard] : shards_) {
    auto events = shard->recorder.events();
    out.insert(out.end(), events.begin(), events.end());
  }
  // Deterministic order regardless of which worker thread recorded what:
  // the key is pure sim-state. Events identical in every key field are
  // interchangeable, so the sort fully determines the dump.
  std::sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return std::tie(a.begin_us, a.end_us, a.name, a.phase, a.lane, a.id) <
           std::tie(b.begin_us, b.end_us, b.name, b.phase, b.lane, b.id);
  });
  return out;
}

std::uint64_t Context::trace_dropped() const {
  std::lock_guard lock{mutex_};
  std::uint64_t dropped = 0;
  for (const auto& [id, shard] : shards_) dropped += shard->recorder.dropped();
  return dropped;
}

Scope::Scope(Context* ctx, std::uint32_t lane) : saved_{detail::tls} {
  TlsBinding next;
  if (ctx != nullptr) {
    next.ctx = ctx;
    next.shard = &ctx->bind_thread();
    next.lane = lane;
    next.tracing = ctx->config().tracing;
  }
  detail::tls = next;
}

Scope::~Scope() { detail::tls = saved_; }

namespace detail {

void record_event(SpanName name, EventPhase phase, sim::Time begin,
                  sim::Time end, std::uint64_t id) {
  Shard* shard = tls.shard;
  if (shard == nullptr) return;
  TraceEvent event;
  event.begin_us = begin.us();
  event.end_us = end.us();
  event.id = id;
  event.name = name;
  event.phase = phase;
  event.lane = tls.lane;
  shard->recorder.record(event);
}

}  // namespace detail

void Counter::inc(std::uint64_t n) const {
  Shard* shard = detail::tls.shard;
  if (shard == nullptr || slot_ == UINT32_MAX) return;
  if (shard->counters.size() <= slot_) shard->counters.resize(slot_ + 1, 0);
  shard->counters[slot_] += n;
}

void Gauge::set(double value) const {
  Shard* shard = detail::tls.shard;
  if (shard == nullptr || slot_ == UINT32_MAX) return;
  if (shard->gauges.size() <= slot_)
    shard->gauges.resize(slot_ + 1, {0.0, false});
  shard->gauges[slot_] = {value, true};
}

void HistogramHandle::observe(double x) const {
  Shard* shard = detail::tls.shard;
  if (shard == nullptr || slot_ == UINT32_MAX) return;
  if (shard->histograms.size() <= slot_) shard->histograms.resize(slot_ + 1);
  if (!shard->histograms[slot_])
    shard->histograms[slot_] =
        std::make_unique<stats::Histogram>(lo_, hi_, bins_);
  shard->histograms[slot_]->add(x);
}

Counter counter(const std::string& name) {
  Context* ctx = detail::tls.ctx;
  if (ctx == nullptr) return Counter{};
  return Counter{ctx->intern(name, MetricKind::kCounter)};
}

Gauge gauge(const std::string& name) {
  Context* ctx = detail::tls.ctx;
  if (ctx == nullptr) return Gauge{};
  return Gauge{ctx->intern(name, MetricKind::kGauge)};
}

HistogramHandle histogram(const std::string& name, double lo, double hi,
                          std::size_t bins) {
  Context* ctx = detail::tls.ctx;
  if (ctx == nullptr) return HistogramHandle{};
  return HistogramHandle{ctx->intern(name, MetricKind::kHistogram, lo, hi, bins),
                         lo, hi, bins};
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  auto merge_sorted = [](auto& mine, const auto& theirs, auto fold) {
    for (const auto& t : theirs) {
      auto it = std::lower_bound(
          mine.begin(), mine.end(), t,
          [](const auto& a, const auto& b) { return a.name < b.name; });
      if (it != mine.end() && it->name == t.name) {
        fold(*it, t);
      } else {
        mine.insert(it, t);
      }
    }
  };
  merge_sorted(counters, other.counters,
               [](Counter& a, const Counter& b) { a.value += b.value; });
  merge_sorted(gauges, other.gauges, [](Gauge& a, const Gauge& b) {
    a.value = std::max(a.value, b.value);
  });
  merge_sorted(histograms, other.histograms, [](Hist& a, const Hist& b) {
    a.histogram.merge(b.histogram);
  });
}

namespace {

void append_f(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min<std::size_t>(static_cast<std::size_t>(n),
                                                   sizeof buf - 1));
}

}  // namespace

std::string MetricsSnapshot::to_prometheus(const std::string& header) const {
  std::string out;
  if (!header.empty()) {
    out += header;
    if (out.back() != '\n') out += '\n';
  }
  for (const auto& c : counters) {
    append_f(out, "# TYPE %s counter\n", c.name.c_str());
    append_f(out, "%s %" PRIu64 "\n", c.name.c_str(), c.value);
  }
  for (const auto& g : gauges) {
    append_f(out, "# TYPE %s gauge\n", g.name.c_str());
    append_f(out, "%s %.17g\n", g.name.c_str(), g.value);
  }
  for (const auto& h : histograms) {
    append_f(out, "# TYPE %s histogram\n", h.name.c_str());
    // add() clamps out-of-range samples into the edge bins, so the bin
    // counts already cover every sample; the cumulative series ends at
    // count() and +Inf repeats it, as the exposition format requires.
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.histogram.bins(); ++b) {
      cumulative += h.histogram.bin_count(b);
      append_f(out, "%s_bucket{le=\"%.17g\"} %" PRIu64 "\n", h.name.c_str(),
               h.histogram.bin_upper(b), cumulative);
    }
    append_f(out, "%s_bucket{le=\"+Inf\"} %zu\n", h.name.c_str(),
             h.histogram.count());
    append_f(out, "%s_sum %.17g\n", h.name.c_str(), h.histogram.sum());
    append_f(out, "%s_count %zu\n", h.name.c_str(), h.histogram.count());
  }
  return out;
}

std::string MetricsSnapshot::counters_text(const std::string& prefix) const {
  std::string out;
  for (const auto& c : counters) {
    if (c.name.compare(0, prefix.size(), prefix) != 0) continue;
    append_f(out, "%s %" PRIu64 "\n", c.name.c_str(), c.value);
  }
  return out;
}

std::uint64_t MetricsSnapshot::counter_value(const std::string& name) const {
  for (const auto& c : counters)
    if (c.name == name) return c.value;
  return 0;
}

namespace {

void append_event_json(std::string& out, const TraceEvent& e,
                       std::uint64_t pid, bool& first) {
  if (!first) out += ",\n";
  first = false;
  const char* name = span_name(e.name);
  switch (e.phase) {
    case EventPhase::kComplete:
      append_f(out,
               "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%" PRId64
               ",\"dur\":%" PRId64 ",\"pid\":%" PRIu64 ",\"tid\":%u",
               name, e.begin_us, e.end_us - e.begin_us, pid, e.lane);
      break;
    case EventPhase::kInstant:
      append_f(out,
               "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%" PRId64
               ",\"pid\":%" PRIu64 ",\"tid\":%u",
               name, e.begin_us, pid, e.lane);
      break;
    case EventPhase::kAsyncBegin:
    case EventPhase::kAsyncEnd:
      append_f(out,
               "{\"name\":\"%s\",\"ph\":\"%s\",\"cat\":\"manet\",\"id\":%" PRIu64
               ",\"ts\":%" PRId64 ",\"pid\":%" PRIu64 ",\"tid\":%u",
               name, e.phase == EventPhase::kAsyncBegin ? "b" : "e", e.id,
               e.begin_us, pid, e.lane);
      break;
  }
  // The free id goes into an args object (async phases carry it as a
  // top-level field already).
  if (e.id != 0 && e.phase != EventPhase::kAsyncBegin &&
      e.phase != EventPhase::kAsyncEnd)
    append_f(out, ",\"args\":{\"id\":%" PRIu64 "}", e.id);
  out += "}";
}

}  // namespace

std::string trace_json(const std::vector<TraceEvent>& events,
                       std::uint64_t pid) {
  return trace_json_multi({{pid, events}});
}

std::string trace_json_multi(
    const std::vector<std::pair<std::uint64_t, std::vector<TraceEvent>>>&
        groups) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& [pid, events] : groups)
    for (const auto& e : events) append_event_json(out, e, pid, first);
  out += "\n]}\n";
  return out;
}

}  // namespace manet::obs
