#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>

#include "logging/binary_codec.hpp"
#include "net/packet.hpp"
#include "olsr/messages.hpp"

namespace manet::olsr {

/// RFC 3626 wire (de)serialization, big-endian, including the
/// mantissa/exponent encoding of validity times (§18.3). Deserialization
/// throws WireError on truncated or inconsistent input — a receiver drops
/// such packets, exactly like a real daemon.

/// A packet, or a payload a DATA message carries, that does not decode:
/// truncated, overlong, or with fields that disagree.
struct WireError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The shared byte codec in network byte order: the packets below, and the
/// investigation and recommendation payloads their DATA messages carry.
using WireWriter = logging::BinaryWriter<std::endian::big>;
using WireReader = logging::BinaryReader<WireError, std::endian::big>;

/// Vtime/Htime 8-bit encoding: value = C * (1 + a/16) * 2^b seconds with
/// C = 1/16 s, a = high nibble, b = low nibble. Both directions read one
/// 256-entry table. Encoding picks the smallest value that covers `d`
/// (within 1 ns); 0 for d <= 0, 0xFF beyond the largest value.
std::uint8_t encode_vtime(sim::Duration d);
sim::Duration decode_vtime(std::uint8_t encoded);

net::Bytes serialize_packet(const OlsrPacket& packet);
OlsrPacket parse_packet(const net::Bytes& bytes);

/// Size in bytes a message will occupy on the wire (header included).
std::size_t wire_size(const Message& message);

}  // namespace manet::olsr
