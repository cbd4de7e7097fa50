#pragma once

#include <cstdint>
#include <map>
#include <variant>
#include <vector>

#include "net/node_id.hpp"
#include "olsr/constants.hpp"
#include "sim/time.hpp"

namespace manet::olsr {

using net::NodeId;

/// Common OLSR message header (RFC 3626 §3.3).
struct MessageHeader {
  MessageType type = MessageType::kHello;
  sim::Duration vtime = kNeighbHoldTime;  ///< validity time of the content
  NodeId originator;                      ///< main address of the creator
  std::uint8_t ttl = kDefaultTtl;
  std::uint8_t hop_count = 0;
  std::uint16_t seq_num = 0;
};

/// HELLO (§6.1): willingness plus neighbors grouped by link code.
struct HelloMessage {
  sim::Duration htime = kHelloInterval;
  Willingness willingness = Willingness::kDefault;
  /// Advertised neighbor groups, keyed by wire link code. Order on the wire
  /// follows ascending code; addresses keep insertion order.
  std::map<std::uint8_t, std::vector<NodeId>> link_groups;

  void add(LinkType lt, NeighborType nt, NodeId neighbor) {
    link_groups[make_link_code(lt, nt)].push_back(neighbor);
  }
  /// All neighbors advertised with SYM link or SYM/MPR neighbor type — the
  /// "symmetric neighbor set" a receiver derives (used by the IDS too), in
  /// wire order, each address at its first occurrence.
  std::vector<NodeId> symmetric_neighbors() const;
  /// The same list into `in_order`, and its addresses ascending into
  /// `ascending`, from one sort (the buffers are replaced).
  void symmetric_neighbors(std::vector<NodeId>& in_order,
                           std::vector<NodeId>& ascending) const;
  /// All addresses regardless of code.
  std::vector<NodeId> all_neighbors() const;
};

/// What every receiver reads from one HELLO, derived once for all the
/// receivers of its frame.
struct HelloLists {
  HelloLists() = default;
  explicit HelloLists(const HelloMessage& hello);

  std::vector<NodeId> sym;         ///< HelloMessage::symmetric_neighbors()
  std::vector<NodeId> sym_sorted;  ///< the same addresses, ascending
  /// Addresses advertised ASYM_LINK with NOT_NEIGH, in wire order.
  std::vector<NodeId> asym;
  std::uint64_t entries = 0;       ///< addresses listed under any code
};

/// TC (§9.1): advertised neighbor sequence number + advertised selectors.
struct TcMessage {
  std::uint16_t ansn = 0;
  std::vector<NodeId> advertised;  ///< at least the MPR-selector set
};

/// MID (§5.1): additional interface addresses of the originator.
struct MidMessage {
  std::vector<NodeId> interfaces;
};

/// HNA (§12.1): (network, mask-bits) pairs reachable via the originator.
struct HnaMessage {
  struct Entry {
    std::uint32_t network = 0;
    std::uint8_t prefix_len = 0;
    friend bool operator==(const Entry&, const Entry&) = default;
  };
  std::vector<Entry> entries;
};

/// Local extension: unicast application payload, source-routed so that the
/// IDS can route investigation requests around a suspicious MPR (§III-C of
/// the paper). `route` lists the remaining relays, final destination last.
struct DataMessage {
  NodeId source;
  NodeId destination;
  std::vector<NodeId> route;  ///< remaining hops, destination included
  /// Relays append themselves while forwarding, so the destination knows
  /// the path actually traversed (the responder answers over its reverse,
  /// keeping request AND answer away from the suspect, §III-C).
  std::vector<NodeId> trace;
  std::uint16_t protocol = 0;  ///< demultiplexing for applications
  std::vector<std::uint8_t> payload;
};

using MessageBody =
    std::variant<HelloMessage, TcMessage, MidMessage, HnaMessage, DataMessage>;

/// One OLSR message: the common header and the body its type names.
struct Message {
  MessageHeader header;
  MessageBody body;

  const HelloMessage* as_hello() const {
    return std::get_if<HelloMessage>(&body);
  }
  const TcMessage* as_tc() const { return std::get_if<TcMessage>(&body); }
  const MidMessage* as_mid() const { return std::get_if<MidMessage>(&body); }
  const HnaMessage* as_hna() const { return std::get_if<HnaMessage>(&body); }
  const DataMessage* as_data() const { return std::get_if<DataMessage>(&body); }
};

/// An OLSR packet: zero or more messages sharing one packet header (§3.4).
struct OlsrPacket {
  std::uint16_t seq_num = 0;
  std::vector<Message> messages;
};

}  // namespace manet::olsr
