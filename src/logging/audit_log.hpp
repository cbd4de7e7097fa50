#pragma once

#include <cstdint>
#include <stdexcept>

#include "logging/binary_codec.hpp"
#include "logging/record.hpp"

namespace manet::logging {

/// First bytes of every audit log ("MNTA" little-endian) and the format
/// version. Same compatibility rule as the checkpoint (expect_tag): a
/// reader accepts exactly its own version — the stream is a byte-exact
/// replay input, so any frame-layout change bumps the version and
/// invalidates old files. Version 2 added the kForwardAudit frame kind
/// (forwarding-audit grayhole detection).
inline constexpr std::uint32_t kAuditMagic = 0x41544E4Du;  // "MNTA"
inline constexpr std::uint32_t kAuditVersion = 2;

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
/// the checkpoint's log section (faults/checkpoint.hpp).
template <typename IO, typename Record>
void transfer_record(IO& io, Record& record) {
  io.time(record.time);
  io.node(record.node);
  io.str(record.event);
  io.list(record.fields, [&io](auto& field) {
    io.str(field.first);
    io.str(field.second);
  });
}

/// Reader of the audit-log format; every overrun throws AuditError.
using AuditReader = BinaryReader<AuditError>;

/// Writer of the audit-log format: the shared BinaryWriter plus the kLine
/// frame the LogStore writer mode appends on every record.
class AuditWriter : public BinaryWriter {
 public:
  void line(const LogRecord& record) {
    begin_frame(AuditFrame::kLine);
    transfer_record(*this, record);
    end_frame();
  }
};

}  // namespace manet::logging
