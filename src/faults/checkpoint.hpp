#pragma once

#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "core/detector.hpp"
#include "core/investigation.hpp"
#include "logging/log_store.hpp"
#include "net/medium.hpp"
#include "olsr/agent.hpp"
#include "sim/rng.hpp"
#include "trust/trust_store.hpp"

namespace manet::faults {

/// First bytes of every checkpoint ("MNTC" little-endian) and the format
/// version. Compatibility rule: a reader accepts exactly its own version —
/// the snapshot is a byte-exact state image, so any layout change (a new
/// field, a reordered table) bumps the version and invalidates old files.
/// There is deliberately no migration path: checkpoints are short-lived
/// run artifacts, not archival data. Version 2 added the detector's
/// forwarding-audit state and the per-attack-kind experiment payload;
/// version 3 replaced the routing snapshot with the routes alone (the
/// knowledge graph is rebuilt from the restored tables).
inline constexpr std::uint32_t kCheckpointMagic = 0x43544E4Du;  // "MNTC"
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// Thrown on malformed, truncated or version-mismatched snapshots.
struct CheckpointError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Little-endian binary writer backing the snapshot format. Fixed-width
/// fields only — the restore path must consume exactly what was written.
class CheckpointWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void time(sim::Time t) { i64(t.us()); }
  void node(net::NodeId n) { u32(n.value()); }
  void count(std::size_t n);
  void str(std::string_view s);
  void blob(const std::uint8_t* data, std::size_t size);

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void le(std::uint64_t v, int bytes);
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked mirror of CheckpointWriter; throws CheckpointError on
/// truncation instead of reading past the end.
class CheckpointReader {
 public:
  explicit CheckpointReader(const std::vector<std::uint8_t>& data)
      : data_{data.data()}, size_{data.size()} {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  bool boolean() { return u8() != 0; }
  sim::Time time() { return sim::Time::from_us(i64()); }
  net::NodeId node() { return net::NodeId{u32()}; }
  std::size_t count();
  std::string str();
  std::vector<std::uint8_t> blob();

  bool at_end() const { return pos_ == size_; }

 private:
  std::uint64_t le(int bytes);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------- components
// Each component codec is a matched encode/decode pair; decode applies
// state directly through the component's checkpoint surface. Pending
// *events* (timers, in-flight frames, jittered forwards, the injector
// cursor) are returned as images instead — the restore harness re-arms
// them globally, sorted by (time, original seq), so the rebuilt event
// queue preserves every tie-break of the uninterrupted run.

/// One periodic timer's pending firing.
struct TimerImage {
  bool running = false;
  sim::Time next_fire{};
  std::uint64_t seq = 0;
};

/// One jittered §3.4.1 forward not yet emitted (message in wire form).
struct ForwardImage {
  std::vector<std::uint8_t> message;
  sim::Time at{};
  std::uint64_t seq = 0;
};

/// Everything about one agent that is an event, not state.
struct AgentImage {
  bool running = false;
  TimerImage hello, tc, mid, housekeeping;
  std::vector<ForwardImage> forwards;
};

void encode_rng(CheckpointWriter& w, const sim::Rng::State& state);
sim::Rng::State decode_rng(CheckpointReader& r);

void encode_log(CheckpointWriter& w, const logging::LogStore& log);
void decode_log(CheckpointReader& r, logging::LogStore& log);

/// Routing section of an agent. Decode rejects any table whose parent
/// chains route_to could not walk: mismatched lengths, unsorted or
/// duplicate destinations, out-of-range distances or parents.
void encode_routes(CheckpointWriter& w,
                   const olsr::RoutingTable::Persisted& routes);
olsr::RoutingTable::Persisted decode_routes(CheckpointReader& r);

void encode_agent(CheckpointWriter& w, const olsr::Agent& agent);
AgentImage decode_agent(CheckpointReader& r, olsr::Agent& agent);

void encode_trust(CheckpointWriter& w, const trust::TrustStore& store);
void decode_trust(CheckpointReader& r, trust::TrustStore& store);

void encode_detector(CheckpointWriter& w, const core::Detector& detector);
void decode_detector(CheckpointReader& r, core::Detector& detector);

void encode_investigations(CheckpointWriter& w,
                           const core::InvestigationManager& inv);
void decode_investigations(CheckpointReader& r,
                           core::InvestigationManager& inv);

/// Medium image: counters and per-host radio state (up/down, brown-out
/// override, partition id) are applied to `medium` on decode; the in-flight
/// frames are returned for the ordered global re-arm.
struct MediumImage {
  net::MediumStats stats;
  std::vector<net::InFlightFrame> flights;
};

void encode_medium(CheckpointWriter& w, const net::Medium& medium);
MediumImage decode_medium(CheckpointReader& r, net::Medium& medium);

}  // namespace manet::faults
