// Unit tests for RFC 3626 wire (de)serialization, including the
// mantissa/exponent Vtime encoding and malformed-packet rejection.

#include <gtest/gtest.h>

#include <cmath>

#include "byte_digest.hpp"
#include "olsr/wire.hpp"
#include "sim/rng.hpp"

namespace manet::olsr {
namespace {

// RFC 3626 §18.3 as a reference: the value C * (1 + a/16) * 2^b of a code,
// and the encoder's search for the first (b, a) whose value covers d,
// with the std::pow evaluation the codec used before it read a table.
double reference_vtime_seconds(int code) {
  const int a = code >> 4;
  const int b = code & 0x0F;
  return (1.0 / 16.0) * (1.0 + a / 16.0) * std::pow(2.0, b);
}

std::uint8_t reference_encode_vtime(sim::Duration d) {
  const double seconds = d.seconds();
  if (seconds <= 0.0) return 0;
  for (int b = 0; b <= 15; ++b)
    for (int a = 0; a <= 15; ++a)
      if (reference_vtime_seconds((a << 4) | b) + 1e-9 >= seconds)
        return static_cast<std::uint8_t>((a << 4) | b);
  return 0xFF;
}

TEST(Vtime, TableMatchesRfcFormulaReference) {
  for (int code = 0; code < 256; ++code)
    ASSERT_EQ(decode_vtime(static_cast<std::uint8_t>(code)),
              sim::Duration::from_seconds(reference_vtime_seconds(code)))
        << "code " << code;
  const auto check = [](sim::Duration d) {
    ASSERT_EQ(encode_vtime(d), reference_encode_vtime(d)) << d.us() << " us";
  };
  check(sim::Duration{});
  for (const std::int64_t us : {-1, -62'500, -30'000'000})
    check(sim::Duration::from_us(us));
  const auto us = sim::Duration::from_us(1);
  for (int code = 0; code < 256; ++code) {
    const auto v = sim::Duration::from_seconds(reference_vtime_seconds(code));
    check(v - us);
    check(v);
    check(v + us);
  }
  // Beyond the largest value (0xFF, 3,968 s).
  EXPECT_EQ(encode_vtime(decode_vtime(0xFF) + us), 0xFF);
  check(sim::Duration::from_seconds(1e7));
}

TEST(Vtime, EncodeDecodeMonotone) {
  // The encoding rounds UP to the next representable value, never down
  // (validity times must not shrink).
  for (double s : {0.1, 0.5, 1.0, 2.0, 6.0, 15.0, 30.0, 120.0}) {
    const auto enc = encode_vtime(sim::Duration::from_seconds(s));
    const auto dec = decode_vtime(enc);
    EXPECT_GE(dec.seconds() + 1e-6, s) << "s=" << s;
    EXPECT_LE(dec.seconds(), s * 1.15 + 0.1) << "s=" << s;
  }
}

TEST(Vtime, KnownEncodings) {
  // C=1/16s: encoding 0 decodes to exactly 1/16 s.
  EXPECT_NEAR(decode_vtime(0).seconds(), 0.0625, 1e-9);
  // a=0,b=5 -> 2 s exactly: value C*(1+0)*2^5.
  EXPECT_NEAR(decode_vtime(0x05).seconds(), 2.0, 1e-9);
  EXPECT_EQ(encode_vtime(sim::Duration::from_seconds(2.0)), 0x05);
  // 6 s = C*(1+8/16)*2^6 -> a=8,b=6.
  EXPECT_NEAR(decode_vtime(0x86).seconds(), 6.0, 1e-9);
  EXPECT_EQ(encode_vtime(sim::Duration::from_seconds(6.0)), 0x86);
}

Message make_hello_message() {
  HelloMessage h;
  h.htime = sim::Duration::from_seconds(2.0);
  h.willingness = Willingness::kHigh;
  h.add(LinkType::kSym, NeighborType::kMprNeigh, NodeId{2});
  h.add(LinkType::kSym, NeighborType::kSymNeigh, NodeId{3});
  h.add(LinkType::kSym, NeighborType::kSymNeigh, NodeId{4});
  h.add(LinkType::kAsym, NeighborType::kNotNeigh, NodeId{9});
  Message m;
  m.header.type = MessageType::kHello;
  m.header.vtime = sim::Duration::from_seconds(6.0);
  m.header.originator = NodeId{1};
  m.header.ttl = 1;
  m.header.hop_count = 0;
  m.header.seq_num = 77;
  m.body = h;
  return m;
}

TEST(Wire, HelloRoundTrip) {
  OlsrPacket p;
  p.seq_num = 1234;
  p.messages.push_back(make_hello_message());
  const auto bytes = serialize_packet(p);
  const auto back = parse_packet(bytes);

  EXPECT_EQ(back.seq_num, 1234);
  ASSERT_EQ(back.messages.size(), 1u);
  const auto& m = back.messages[0];
  EXPECT_EQ(m.header.type, MessageType::kHello);
  EXPECT_EQ(m.header.originator, NodeId{1});
  EXPECT_EQ(m.header.seq_num, 77);
  const auto* h = m.as_hello();
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->willingness, Willingness::kHigh);
  EXPECT_NEAR(h->htime.seconds(), 2.0, 1e-9);
  const auto sym = h->symmetric_neighbors();
  EXPECT_EQ(sym.size(), 3u);
  EXPECT_EQ(h->all_neighbors().size(), 4u);
}

// A forged or careless HELLO may list one address under several codes: the
// symmetric list keeps its first occurrence in wire order (ascending code,
// then insertion), and the ascending copy holds each address once.
TEST(Wire, SymmetricNeighborsKeepFirstOccurrence) {
  HelloMessage h;
  h.add(LinkType::kSym, NeighborType::kSymNeigh, NodeId{5});
  h.add(LinkType::kSym, NeighborType::kSymNeigh, NodeId{3});
  h.add(LinkType::kSym, NeighborType::kSymNeigh, NodeId{5});
  h.add(LinkType::kSym, NeighborType::kMprNeigh, NodeId{9});
  h.add(LinkType::kSym, NeighborType::kMprNeigh, NodeId{3});
  h.add(LinkType::kAsym, NeighborType::kNotNeigh, NodeId{1});
  h.add(LinkType::kSym, NeighborType::kMprNeigh, NodeId{2});
  const std::vector<NodeId> first_seen{NodeId{5}, NodeId{3}, NodeId{9},
                                       NodeId{2}};
  EXPECT_EQ(h.symmetric_neighbors(), first_seen);
  std::vector<NodeId> in_order, ascending;
  h.symmetric_neighbors(in_order, ascending);
  EXPECT_EQ(in_order, first_seen);
  EXPECT_EQ(ascending,
            (std::vector<NodeId>{NodeId{2}, NodeId{3}, NodeId{5}, NodeId{9}}));

  // Without repeats the list is the groups concatenated, untouched.
  HelloMessage plain;
  plain.add(LinkType::kSym, NeighborType::kMprNeigh, NodeId{1});
  plain.add(LinkType::kSym, NeighborType::kSymNeigh, NodeId{8});
  plain.add(LinkType::kSym, NeighborType::kSymNeigh, NodeId{4});
  EXPECT_EQ(plain.symmetric_neighbors(),
            (std::vector<NodeId>{NodeId{8}, NodeId{4}, NodeId{1}}));
}

TEST(Wire, TcRoundTrip) {
  TcMessage tc;
  tc.ansn = 999;
  tc.advertised = {NodeId{5}, NodeId{6}, NodeId{7}};
  Message m;
  m.header.type = MessageType::kTc;
  m.header.originator = NodeId{2};
  m.header.ttl = 255;
  m.header.hop_count = 3;
  m.header.seq_num = 1;
  m.body = tc;

  OlsrPacket p;
  p.messages.push_back(m);
  const auto back = parse_packet(serialize_packet(p));
  const auto* t = back.messages.at(0).as_tc();
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->ansn, 999);
  EXPECT_EQ(t->advertised, tc.advertised);
  EXPECT_EQ(back.messages[0].header.hop_count, 3);
}

TEST(Wire, MidAndHnaRoundTrip) {
  Message mid;
  mid.header.type = MessageType::kMid;
  mid.header.originator = NodeId{3};
  mid.header.seq_num = 2;
  mid.body = MidMessage{{NodeId{30}, NodeId{31}}};

  Message hna;
  hna.header.type = MessageType::kHna;
  hna.header.originator = NodeId{3};
  hna.header.seq_num = 3;
  hna.body = HnaMessage{{{0x0A000000u, 8}, {0xC0A80000u, 16}}};

  OlsrPacket p;
  p.messages.push_back(mid);
  p.messages.push_back(hna);
  const auto back = parse_packet(serialize_packet(p));
  ASSERT_EQ(back.messages.size(), 2u);
  EXPECT_EQ(back.messages[0].as_mid()->interfaces,
            (std::vector<NodeId>{NodeId{30}, NodeId{31}}));
  const auto* h = back.messages[1].as_hna();
  ASSERT_EQ(h->entries.size(), 2u);
  EXPECT_EQ(h->entries[0].network, 0x0A000000u);
  EXPECT_EQ(h->entries[0].prefix_len, 8);
  EXPECT_EQ(h->entries[1].prefix_len, 16);
}

TEST(Wire, DataRoundTrip) {
  DataMessage d;
  d.source = NodeId{1};
  d.destination = NodeId{9};
  d.route = {NodeId{4}, NodeId{9}};
  d.protocol = 42;
  d.payload = {0xDE, 0xAD, 0xBE, 0xEF};
  Message m;
  m.header.type = MessageType::kData;
  m.header.originator = NodeId{1};
  m.header.seq_num = 4;
  m.body = d;

  OlsrPacket p;
  p.messages.push_back(m);
  const auto back = parse_packet(serialize_packet(p));
  const auto* dd = back.messages.at(0).as_data();
  ASSERT_NE(dd, nullptr);
  EXPECT_EQ(dd->source, d.source);
  EXPECT_EQ(dd->destination, d.destination);
  EXPECT_EQ(dd->route, d.route);
  EXPECT_EQ(dd->protocol, 42);
  EXPECT_EQ(dd->payload, d.payload);
}

TEST(Wire, MultiMessagePacket) {
  OlsrPacket p;
  p.seq_num = 5;
  p.messages.push_back(make_hello_message());
  Message tc;
  tc.header.type = MessageType::kTc;
  tc.header.originator = NodeId{1};
  tc.header.seq_num = 78;
  tc.body = TcMessage{10, {NodeId{2}}};
  p.messages.push_back(tc);

  const auto back = parse_packet(serialize_packet(p));
  ASSERT_EQ(back.messages.size(), 2u);
  EXPECT_NE(back.messages[0].as_hello(), nullptr);
  EXPECT_NE(back.messages[1].as_tc(), nullptr);
}

TEST(Wire, TruncatedPacketThrows) {
  OlsrPacket p;
  p.messages.push_back(make_hello_message());
  auto bytes = serialize_packet(p);
  for (std::size_t cut : {1ul, 5ul, bytes.size() / 2, bytes.size() - 1}) {
    net::Bytes truncated{bytes.begin(),
                         bytes.begin() + static_cast<std::ptrdiff_t>(cut)};
    EXPECT_THROW(parse_packet(truncated), WireError) << "cut=" << cut;
  }
}

TEST(Wire, LengthMismatchThrows) {
  OlsrPacket p;
  p.messages.push_back(make_hello_message());
  auto bytes = serialize_packet(p);
  bytes.push_back(0);  // trailing garbage breaks the declared length
  EXPECT_THROW(parse_packet(bytes), WireError);
}

TEST(Wire, UnknownMessageTypeThrows) {
  OlsrPacket p;
  p.messages.push_back(make_hello_message());
  auto bytes = serialize_packet(p);
  bytes[4] = 99;  // message type byte of the first message
  EXPECT_THROW(parse_packet(bytes), WireError);
}

TEST(Wire, EmptyPacketRoundTrips) {
  OlsrPacket p;
  p.seq_num = 7;
  const auto back = parse_packet(serialize_packet(p));
  EXPECT_EQ(back.seq_num, 7);
  EXPECT_TRUE(back.messages.empty());
}

// One packet of each message type; PacketBytesArePinned holds their
// committed bytes. The round trips above pass under any byte order the
// writer and the reader agree on; these pin RFC 3626's network byte order
// and every size field.
struct PinnedPacket {
  const char* name;
  OlsrPacket packet;
};

Message header_of(MessageType type, sim::Duration vtime, std::uint32_t orig,
                  std::uint8_t ttl, std::uint8_t hops, std::uint16_t seq) {
  Message m;
  m.header.type = type;
  m.header.vtime = vtime;
  m.header.originator = NodeId{orig};
  m.header.ttl = ttl;
  m.header.hop_count = hops;
  m.header.seq_num = seq;
  return m;
}

std::vector<PinnedPacket> pinned_packets() {
  const auto secs = [](double s) { return sim::Duration::from_seconds(s); };
  std::vector<PinnedPacket> out;

  OlsrPacket hello;
  hello.seq_num = 0x1234;
  hello.messages.push_back(make_hello_message());
  hello.messages[0].header.originator = NodeId{0x0A0B0C0D};
  out.push_back({"hello", hello});

  OlsrPacket tc;
  tc.seq_num = 0x0102;
  auto& t = tc.messages.emplace_back(
      header_of(MessageType::kTc, secs(15.0), 0x00000102, 254, 1, 0xBEEF));
  t.body = TcMessage{0x03E7, {NodeId{5}, NodeId{0x00010006}, NodeId{7}}};
  out.push_back({"tc", tc});

  OlsrPacket mid;
  mid.seq_num = 3;
  auto& m = mid.messages.emplace_back(
      header_of(MessageType::kMid, secs(15.0), 3, 255, 0, 0x0203));
  m.body = MidMessage{{NodeId{30}, NodeId{0x1F000031}}};
  out.push_back({"mid", mid});

  OlsrPacket hna;
  hna.seq_num = 4;
  auto& h = hna.messages.emplace_back(
      header_of(MessageType::kHna, secs(15.0), 3, 255, 0, 0x0304));
  h.body = HnaMessage{{{0x00000000u, 0}, {0x0A000000u, 8}, {0xC0A80101u, 32}}};
  out.push_back({"hna", hna});

  OlsrPacket data;
  data.seq_num = 0xABCD;
  auto& d = data.messages.emplace_back(
      header_of(MessageType::kData, secs(6.0), 1, 64, 2, 0x0405));
  DataMessage body;
  body.source = NodeId{1};
  body.destination = NodeId{0x00000109};
  body.route = {NodeId{4}, NodeId{0x00000109}};
  body.trace = {NodeId{1}, NodeId{0x00020003}, NodeId{4}};
  body.protocol = 0x4A01;
  body.payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x01};
  d.body = body;
  out.push_back({"data", data});
  return out;
}

TEST(Wire, PacketBytesArePinned) {
  // Packet header (length, seq), message header (type, vtime, size,
  // originator, ttl, hop count, seq), then the body.
  const std::vector<std::string> expected{
      // HELLO: reserved, htime 2 s, willingness 6; link codes 0x01, 0x06,
      // 0x0a ascending, each with reserved, size and addresses.
      "00301234"
      "0186002c0a0b0c0d0100004d"
      "00000506"
      "0100000800000009"
      "0600000c0000000300000004"
      "0a00000800000002",
      // TC: ANSN, reserved, advertised addresses.
      "00200102"
      "02e7001c00000102fe01beef"
      "03e70000000000050001000600000007",
      // MID: interface addresses.
      "00180003"
      "03e7001400000003ff000203"
      "0000001e1f000031",
      // HNA: (network, mask) for prefixes 0, 8 and 32.
      "00280004"
      "04e7002400000003ff000304"
      "0000000000000000"
      "0a000000ff000000"
      "c0a80101ffffffff",
      // DATA: source, destination, route and trace lengths, protocol,
      // route, trace, payload length, payload.
      "0037abcd"
      "c88600330000000140020405"
      "000000010000010902034a01"
      "0000000400000109"
      "000000010002000300000004"
      "0005deadbeef01"};
  const auto packets = pinned_packets();
  ASSERT_EQ(packets.size(), expected.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const auto bytes = serialize_packet(packets[i].packet);
    EXPECT_EQ(test_digest::hex(bytes), expected[i]) << packets[i].name;
    // The committed bytes parse back into the same packet.
    const auto pinned = test_digest::unhex(expected[i]);
    EXPECT_EQ(serialize_packet(parse_packet(pinned)), pinned)
        << packets[i].name;
  }
}

TEST(Wire, WireSizeMatchesSerialization) {
  for (const auto& pinned : pinned_packets()) {
    std::size_t total = 4;  // packet header
    for (const auto& m : pinned.packet.messages) total += wire_size(m);
    EXPECT_EQ(total, serialize_packet(pinned.packet).size()) << pinned.name;
  }
  OlsrPacket all;
  for (const auto& pinned : pinned_packets())
    for (const auto& m : pinned.packet.messages) all.messages.push_back(m);
  std::size_t total = 4;
  for (const auto& m : all.messages) total += wire_size(m);
  EXPECT_EQ(total, serialize_packet(all).size());
}

// Property: round-trip over randomized hello shapes.
class WireHelloProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireHelloProperty, RoundTrips) {
  sim::Rng rng{GetParam()};
  HelloMessage h;
  h.willingness = Willingness::kDefault;
  const int groups = static_cast<int>(rng.uniform_int(0, 3));
  for (int g = 0; g < groups; ++g) {
    const auto lt = static_cast<LinkType>(rng.uniform_int(0, 3));
    const auto nt = static_cast<NeighborType>(rng.uniform_int(0, 2));
    const int count = static_cast<int>(rng.uniform_int(1, 6));
    for (int i = 0; i < count; ++i)
      h.add(lt, nt, NodeId{static_cast<std::uint32_t>(rng.uniform_int(0, 200))});
  }
  Message m;
  m.header.type = MessageType::kHello;
  m.header.originator = NodeId{0};
  m.header.seq_num = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
  m.body = h;
  OlsrPacket p;
  p.messages.push_back(m);
  const auto back = parse_packet(serialize_packet(p));
  const auto* hh = back.messages.at(0).as_hello();
  ASSERT_NE(hh, nullptr);
  EXPECT_EQ(hh->link_groups, h.link_groups);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireHelloProperty,
                         ::testing::Range<std::uint64_t>(1, 20));

}  // namespace
}  // namespace manet::olsr
