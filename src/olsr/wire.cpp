#include "olsr/wire.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <span>
#include <type_traits>

namespace manet::olsr {
namespace {

constexpr double kVtimeScale = 1.0 / 16.0;  // C in seconds

/// Every vtime value C * (1 + a/16) * 2^b, listed in (b, a) order: index
/// 16b + a. The values rise strictly in that order, since 1.9375 * 2^b <
/// 2^(b+1), so encoding is a binary search and decoding an index.
constexpr std::array<double, 256> kVtimeSeconds = [] {
  std::array<double, 256> t{};
  for (int b = 0; b <= 15; ++b)
    for (int a = 0; a <= 15; ++a)
      t[static_cast<std::size_t>(16 * b + a)] =
          kVtimeScale * (1.0 + a / 16.0) * static_cast<double>(1 << b);
  return t;
}();

/// type + vtime + size + originator + ttl + hop count + seq num (§3.3).
constexpr std::size_t kMessageHeaderSize = 12;

void write_body(WireWriter& w, const HelloMessage& h) {
  w.u16(0);  // reserved
  w.u8(encode_vtime(h.htime));
  w.u8(h.willingness);
  for (const auto& [code, addrs] : h.link_groups) {
    w.u8(code);
    w.u8(0);  // reserved
    w.u16(4 + 4 * addrs.size());
    w.nodes(addrs);
  }
}

void write_body(WireWriter& w, const TcMessage& t) {
  w.u16(t.ansn);
  w.u16(0);  // reserved
  w.nodes(t.advertised);
}

void write_body(WireWriter& w, const MidMessage& m) { w.nodes(m.interfaces); }

void write_body(WireWriter& w, const HnaMessage& h) {
  for (const auto& e : h.entries) {
    w.u32(e.network);
    w.u32(e.prefix_len == 0 ? 0u : (~0u << (32 - e.prefix_len)));
  }
}

void write_body(WireWriter& w, const DataMessage& d) {
  w.node(d.source);
  w.node(d.destination);
  w.u8(d.route.size());
  w.u8(d.trace.size());
  w.u16(d.protocol);
  w.nodes(d.route);
  w.nodes(d.trace);
  w.u16(d.payload.size());
  w.raw(d.payload.data(), d.payload.size());
}

/// Exact serialized body size per message type: what the message and
/// packet headers carry ahead of the bytes they count, the writer's one
/// reservation, and wire_size() without serializing.
std::size_t body_wire_size(const MessageBody& body) {
  return std::visit(
      [](const auto& b) -> std::size_t {
        using T = std::remove_cvref_t<decltype(b)>;
        if constexpr (std::is_same_v<T, HelloMessage>) {
          std::size_t n = 4;
          for (const auto& [code, addrs] : b.link_groups)
            n += 4 + 4 * addrs.size();
          return n;
        } else if constexpr (std::is_same_v<T, TcMessage>) {
          return 4 + 4 * b.advertised.size();
        } else if constexpr (std::is_same_v<T, MidMessage>) {
          return 4 * b.interfaces.size();
        } else if constexpr (std::is_same_v<T, HnaMessage>) {
          return 8 * b.entries.size();
        } else {
          static_assert(std::is_same_v<T, DataMessage>);
          return 14 + 4 * (b.route.size() + b.trace.size()) +
                 b.payload.size();
        }
      },
      body);
}

// Each body reader gets a reader over its message's body alone, so a
// field past the message's end is truncation; parse_packet refuses bytes
// left over (a TC, MID or HNA body is whole addresses or entries).

HelloMessage read_hello(WireReader& r) {
  HelloMessage h;
  r.u16();  // reserved
  h.htime = decode_vtime(r.u8());
  r.u8(h.willingness);
  while (!r.at_end()) {
    const auto code = r.u8();
    r.u8();  // reserved
    const auto size = r.u16();
    if (size < 4 || size % 4 != 0) throw WireError{"bad link group size"};
    r.nodes(h.link_groups[code], (size - 4) / 4);
  }
  return h;
}

TcMessage read_tc(WireReader& r) {
  TcMessage t;
  r.u16(t.ansn);
  r.u16();  // reserved
  r.nodes(t.advertised, r.remaining() / 4);
  return t;
}

MidMessage read_mid(WireReader& r) {
  MidMessage m;
  r.nodes(m.interfaces, r.remaining() / 4);
  return m;
}

HnaMessage read_hna(WireReader& r) {
  HnaMessage h;
  while (!r.at_end()) {
    auto& e = h.entries.emplace_back();
    r.u32(e.network);
    e.prefix_len = static_cast<std::uint8_t>(std::popcount(r.u32()));
  }
  return h;
}

DataMessage read_data(WireReader& r) {
  DataMessage d;
  r.node(d.source);
  r.node(d.destination);
  const auto route_len = r.u8();
  const auto trace_len = r.u8();
  r.u16(d.protocol);
  r.nodes(d.route, route_len);
  r.nodes(d.trace, trace_len);
  const auto payload = r.raw(r.u16());
  d.payload.assign(payload.begin(), payload.end());
  return d;
}

}  // namespace

std::uint8_t encode_vtime(sim::Duration d) {
  const double seconds = d.seconds();
  if (seconds <= 0.0) return 0;
  // The smallest value, in (b, a) order, that covers `seconds`.
  const auto it = std::partition_point(
      kVtimeSeconds.begin(), kVtimeSeconds.end(),
      [seconds](double v) { return v + 1e-9 < seconds; });
  if (it == kVtimeSeconds.end()) return 0xFF;  // maximum representable
  const auto i = static_cast<unsigned>(it - kVtimeSeconds.begin());
  return static_cast<std::uint8_t>(((i % 16) << 4) | (i / 16));
}

sim::Duration decode_vtime(std::uint8_t encoded) {
  return sim::Duration::from_seconds(
      kVtimeSeconds[16 * (encoded & 0x0F) + (encoded >> 4)]);
}

namespace {

void write_message(WireWriter& w, const Message& m, std::size_t size) {
  w.u8(m.header.type);
  w.u8(encode_vtime(m.header.vtime));
  w.u16(size);
  w.node(m.header.originator);
  w.u8(m.header.ttl);
  w.u8(m.header.hop_count);
  w.u16(m.header.seq_num);
  std::visit([&w](const auto& body) { write_body(w, body); }, m.body);
}

/// Writes the packet header and `messages`, the leading messages of a
/// packet whose header and later messages take `length` bytes, into one
/// writer sized for the whole packet. Every size goes out ahead of the
/// bytes it counts, so each message's size is taken once, on the way into
/// the recursion (one level per message, last first), and the messages
/// are written in order on the way back out.
WireWriter write_packet(std::uint16_t seq_num,
                        std::span<const Message> messages,
                        std::size_t length) {
  if (messages.empty()) {
    WireWriter w{length};
    w.u16(length);
    w.u16(seq_num);
    return w;
  }
  const auto& last = messages.back();
  const std::size_t size = wire_size(last);
  auto w = write_packet(seq_num, messages.first(messages.size() - 1),
                        length + size);
  write_message(w, last, size);
  return w;
}

}  // namespace

net::Bytes serialize_packet(const OlsrPacket& packet) {
  return write_packet(packet.seq_num, packet.messages, 4).take();
}

OlsrPacket parse_packet(const net::Bytes& bytes) {
  WireReader r{bytes};
  OlsrPacket packet;
  if (r.u16() != bytes.size()) throw WireError{"packet length mismatch"};
  r.u16(packet.seq_num);
  while (!r.at_end()) {
    auto& m = packet.messages.emplace_back();
    r.u8(m.header.type);
    m.header.vtime = decode_vtime(r.u8());
    const std::size_t size = r.u16();
    if (size < kMessageHeaderSize) throw WireError{"message size too small"};
    r.node(m.header.originator);
    r.u8(m.header.ttl);
    r.u8(m.header.hop_count);
    r.u16(m.header.seq_num);
    WireReader body{r.raw(size - kMessageHeaderSize)};
    switch (m.header.type) {
      case MessageType::kHello:
        m.body = read_hello(body);
        break;
      case MessageType::kTc:
        m.body = read_tc(body);
        break;
      case MessageType::kMid:
        m.body = read_mid(body);
        break;
      case MessageType::kHna:
        m.body = read_hna(body);
        break;
      case MessageType::kData:
        m.body = read_data(body);
        break;
      default:
        throw WireError{"unknown message type"};
    }
    if (!body.at_end()) throw WireError{"message body overrun"};
  }
  return packet;
}

std::size_t wire_size(const Message& message) {
  return kMessageHeaderSize + body_wire_size(message.body);
}

}  // namespace manet::olsr
