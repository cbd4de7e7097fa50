#include "olsr/wire.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <type_traits>

namespace manet::olsr {
namespace {

class ByteWriter {
 public:
  explicit ByteWriter(net::Bytes& out) : out_{out} {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v & 0xFF));
  }
  void u32(std::uint32_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 24));
    out_.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
    out_.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
    out_.push_back(static_cast<std::uint8_t>(v & 0xFF));
  }
  void node(NodeId id) { u32(id.value()); }
  void bytes(const std::uint8_t* p, std::size_t n) {
    out_.insert(out_.end(), p, p + n);
  }
  std::size_t size() const { return out_.size(); }
  /// Back-patches a previously written u16 at `offset`.
  void patch_u16(std::size_t offset, std::uint16_t v) {
    out_[offset] = static_cast<std::uint8_t>(v >> 8);
    out_[offset + 1] = static_cast<std::uint8_t>(v & 0xFF);
  }

 private:
  net::Bytes& out_;
};

class ByteReader {
 public:
  explicit ByteReader(const net::Bytes& in) : in_{in} {}

  std::uint8_t u8() {
    require(1);
    return in_[pos_++];
  }
  std::uint16_t u16() {
    require(2);
    const auto v = static_cast<std::uint16_t>((in_[pos_] << 8) | in_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    require(4);
    const std::uint32_t v = (static_cast<std::uint32_t>(in_[pos_]) << 24) |
                            (static_cast<std::uint32_t>(in_[pos_ + 1]) << 16) |
                            (static_cast<std::uint32_t>(in_[pos_ + 2]) << 8) |
                            static_cast<std::uint32_t>(in_[pos_ + 3]);
    pos_ += 4;
    return v;
  }
  NodeId node() { return NodeId{u32()}; }
  void bytes(net::Bytes& out, std::size_t n) {
    require(n);
    out.insert(out.end(), in_.begin() + static_cast<std::ptrdiff_t>(pos_),
               in_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
  }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return in_.size() - pos_; }
  void require(std::size_t n) const {
    if (in_.size() - pos_ < n) throw WireError{"truncated packet"};
  }

 private:
  const net::Bytes& in_;
  std::size_t pos_ = 0;
};

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

void write_body(ByteWriter& w, const HelloMessage& h) {
  w.u16(0);  // reserved
  w.u8(encode_vtime(h.htime));
  w.u8(static_cast<std::uint8_t>(h.willingness));
  for (const auto& [code, addrs] : h.link_groups) {
    w.u8(code);
    w.u8(0);  // reserved
    w.u16(static_cast<std::uint16_t>(4 + 4 * addrs.size()));
    for (auto a : addrs) w.node(a);
  }
}

void write_body(ByteWriter& w, const TcMessage& t) {
  w.u16(t.ansn);
  w.u16(0);  // reserved
  for (auto a : t.advertised) w.node(a);
}

void write_body(ByteWriter& w, const MidMessage& m) {
  for (auto a : m.interfaces) w.node(a);
}

void write_body(ByteWriter& w, const HnaMessage& h) {
  for (const auto& e : h.entries) {
    w.u32(e.network);
    w.u32(e.prefix_len == 0 ? 0u
                            : (~0u << (32 - e.prefix_len)));
  }
}

void write_body(ByteWriter& w, const DataMessage& d) {
  w.node(d.source);
  w.node(d.destination);
  w.u8(static_cast<std::uint8_t>(d.route.size()));
  w.u8(static_cast<std::uint8_t>(d.trace.size()));
  w.u16(d.protocol);
  for (auto hop : d.route) w.node(hop);
  for (auto hop : d.trace) w.node(hop);
  w.u16(static_cast<std::uint16_t>(d.payload.size()));
  w.bytes(d.payload.data(), d.payload.size());
}

/// Exact serialized body size per message type — lets serialize_packet
/// reserve the output buffer in one shot and wire_size() skip serializing.
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

HelloMessage read_hello(ByteReader& r, std::size_t body_end) {
  HelloMessage h;
  r.u16();  // reserved
  h.htime = decode_vtime(r.u8());
  h.willingness = static_cast<Willingness>(r.u8());
  while (r.pos() < body_end) {
    const auto code = r.u8();
    r.u8();  // reserved
    const auto size = r.u16();
    if (size < 4 || (size - 4) % 4 != 0) throw WireError{"bad link group size"};
    const std::size_t count = (size - 4) / 4;
    auto& group = h.link_groups[code];
    for (std::size_t i = 0; i < count; ++i) group.push_back(r.node());
  }
  if (r.pos() != body_end) throw WireError{"hello body overrun"};
  return h;
}

TcMessage read_tc(ByteReader& r, std::size_t body_end) {
  TcMessage t;
  t.ansn = r.u16();
  r.u16();  // reserved
  while (r.pos() + 4 <= body_end) t.advertised.push_back(r.node());
  if (r.pos() != body_end) throw WireError{"tc body overrun"};
  return t;
}

MidMessage read_mid(ByteReader& r, std::size_t body_end) {
  MidMessage m;
  while (r.pos() + 4 <= body_end) m.interfaces.push_back(r.node());
  if (r.pos() != body_end) throw WireError{"mid body overrun"};
  return m;
}

HnaMessage read_hna(ByteReader& r, std::size_t body_end) {
  HnaMessage h;
  while (r.pos() + 8 <= body_end) {
    HnaMessage::Entry e;
    e.network = r.u32();
    const auto mask = r.u32();
    e.prefix_len = static_cast<std::uint8_t>(std::popcount(mask));
    h.entries.push_back(e);
  }
  if (r.pos() != body_end) throw WireError{"hna body overrun"};
  return h;
}

DataMessage read_data(ByteReader& r, std::size_t body_end) {
  DataMessage d;
  d.source = r.node();
  d.destination = r.node();
  const auto route_len = r.u8();
  const auto trace_len = r.u8();
  d.protocol = r.u16();
  for (std::size_t i = 0; i < route_len; ++i) d.route.push_back(r.node());
  for (std::size_t i = 0; i < trace_len; ++i) d.trace.push_back(r.node());
  const auto payload_len = r.u16();
  d.payload.reserve(payload_len);
  r.bytes(d.payload, payload_len);
  if (r.pos() != body_end) throw WireError{"data body overrun"};
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

void write_message(ByteWriter& w, const Message& m) {
  w.u8(static_cast<std::uint8_t>(m.header.type));
  w.u8(encode_vtime(m.header.vtime));
  const std::size_t size_at = w.size();
  w.u16(0);  // message size, patched below
  w.node(m.header.originator);
  w.u8(m.header.ttl);
  w.u8(m.header.hop_count);
  w.u16(m.header.seq_num);
  const std::size_t header_start = size_at - 2;
  std::visit([&](const auto& body) { write_body(w, body); }, m.body);
  w.patch_u16(size_at, static_cast<std::uint16_t>(w.size() - header_start));
}

}  // namespace

net::Bytes serialize_packet(const OlsrPacket& packet) {
  std::size_t total = 4;  // packet header
  for (const auto& m : packet.messages)
    total += kMessageHeaderSize + body_wire_size(m.body);
  net::Bytes out;
  out.reserve(total);
  ByteWriter w{out};
  w.u16(0);  // packet length, patched below
  w.u16(packet.seq_num);
  for (const auto& m : packet.messages) write_message(w, m);
  w.patch_u16(0, static_cast<std::uint16_t>(out.size()));
  return out;
}

OlsrPacket parse_packet(const net::Bytes& bytes) {
  ByteReader r{bytes};
  OlsrPacket packet;
  const auto packet_len = r.u16();
  if (packet_len != bytes.size()) throw WireError{"packet length mismatch"};
  packet.seq_num = r.u16();

  while (r.remaining() > 0) {
    Message m;
    const std::size_t msg_start = r.pos();
    m.header.type = static_cast<MessageType>(r.u8());
    m.header.vtime = decode_vtime(r.u8());
    const auto msg_size = r.u16();
    if (msg_size < 12) throw WireError{"message size too small"};
    m.header.originator = r.node();
    m.header.ttl = r.u8();
    m.header.hop_count = r.u8();
    m.header.seq_num = r.u16();
    const std::size_t body_end = msg_start + msg_size;
    if (body_end > bytes.size()) throw WireError{"message overruns packet"};

    switch (m.header.type) {
      case MessageType::kHello:
        m.body = read_hello(r, body_end);
        break;
      case MessageType::kTc:
        m.body = read_tc(r, body_end);
        break;
      case MessageType::kMid:
        m.body = read_mid(r, body_end);
        break;
      case MessageType::kHna:
        m.body = read_hna(r, body_end);
        break;
      case MessageType::kData:
        m.body = read_data(r, body_end);
        break;
      default:
        throw WireError{"unknown message type"};
    }
    packet.messages.push_back(std::move(m));
  }
  return packet;
}

std::size_t wire_size(const Message& message) {
  return kMessageHeaderSize + body_wire_size(message.body);
}

}  // namespace manet::olsr
