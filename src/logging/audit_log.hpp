#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "logging/binary_codec.hpp"
#include "logging/record.hpp"

namespace manet::logging {

/// First bytes of every audit log ("MNTA" little-endian) and the format
/// version. Same compatibility rule as the checkpoint (expect_tag): a
/// reader accepts exactly its own version — the stream is a byte-exact
/// replay input, so any frame-layout change bumps the version and
/// invalidates old files. Version 2 added the kForwardAudit frame kind
/// (forwarding-audit grayhole detection); version 3 made kLine frames
/// typed (an event code and schema-ordered values, no key strings).
inline constexpr std::uint32_t kAuditMagic = 0x41544E4Du;  // "MNTA"
inline constexpr std::uint32_t kAuditVersion = 3;

/// Thrown on malformed, truncated or version-mismatched audit logs.
struct AuditError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Frame kinds of the audit stream. kLine payloads are LogRecords
/// (transfer_record below); kRound, kDecay and kForwardAudit payloads
/// belong to the detection layer (core/pipeline.cpp) — this layer only
/// frames them.
enum class AuditFrame : std::uint8_t {
  kLine = 1,   ///< one audit-log line of the node's routing daemon
  kRound = 2,  ///< one completed investigation round (core codec)
  kDecay = 3,  ///< one idle-slot trust decay sweep (core codec)
  /// One closed forwarding-audit window tally for an audited MPR (core
  /// codec; observability of the grayhole producer — carries no trust
  /// updates on replay).
  kForwardAudit = 4,
};

/// The one LogRecord layout: a kLine frame's payload, and each record of
/// the checkpoint's log section (faults/checkpoint.hpp). Time, node, the
/// u8 event code, then the values in schema order: an id as u32, an
/// integer as i64, a list as its count and u32 ids; data_drop's fixed
/// reason takes no bytes. One overload per direction, both walking the
/// schema table: save reads the record in place, load fills an owning one.
inline void transfer_record(BinaryWriter<>& io, const RecordView& record) {
  io.time(record.time);
  io.node(record.node);
  io.u8(record.event());
  record.for_each_value([&io](const FieldSpec&, const auto& value) {
    using Value = std::decay_t<decltype(value)>;
    if constexpr (std::is_same_v<Value, net::NodeId>) {
      io.node(value);
    } else if constexpr (std::is_same_v<Value, std::int64_t>) {
      io.i64(value);
    } else if constexpr (!std::is_same_v<Value, std::nullopt_t>) {
      io.count(value.size());
      io.nodes(value);
    }
  });
}

/// The load direction: an unknown event code throws `Error`, and so does
/// any value the bytes cannot fill (the reader's overrun and count checks;
/// a kLine frame also checks it consumed its payload exactly).
template <typename Error>
void transfer_record(BinaryReader<Error>& io, LogRecord& record) {
  io.time(record.time);
  io.node(record.node);
  const std::uint8_t code = io.u8();
  if (code >= kEventCount)
    throw Error{"unknown log event code " + std::to_string(code)};
  const auto event = static_cast<Event>(code);
  record.reset();
  for (const auto& field : schema(event).fields) {
    switch (field.kind) {
      case FieldKind::kId:
        record.push_id(io.node());
        break;
      case FieldKind::kInt:
        record.push_int(io.i64());
        break;
      case FieldKind::kIdList: {
        // Bounded once for the whole list (4 bytes an id), then copied
        // into the record's word block in bulk.
        const std::size_t n = io.count(4);
        if (n > UINT32_MAX) throw Error{"log record list too long"};
        record.push_count(static_cast<std::uint32_t>(n));
        io.nodes(record.push_ids(n));
        break;
      }
      case FieldKind::kRouteExhausted:
        break;
    }
  }
  record.finish(event);
}

/// Reader of the audit-log format; every overrun throws AuditError.
using AuditReader = BinaryReader<AuditError>;

/// Writer of the audit-log format: the shared BinaryWriter plus the kLine
/// frame the LogStore writer mode appends on every record.
class AuditWriter : public BinaryWriter<> {
 public:
  void line(const RecordView& record) {
    begin_frame(AuditFrame::kLine);
    transfer_record(*this, record);
    end_frame();
  }
};

}  // namespace manet::logging
