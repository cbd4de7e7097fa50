#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace manet::olsr {

// RFC 3626 §18.2/§18.3 protocol constants, the same for every agent.

inline constexpr sim::Duration kHelloInterval = sim::Duration::from_seconds(2.0);
inline constexpr sim::Duration kRefreshInterval = sim::Duration::from_seconds(2.0);
inline constexpr sim::Duration kTcInterval = sim::Duration::from_seconds(5.0);
inline constexpr sim::Duration kMidInterval = kTcInterval;
inline constexpr sim::Duration kHnaInterval = kTcInterval;
/// Emission jitter, subtracted uniformly from each interval (§18.3).
inline constexpr sim::Duration kMaxJitter = sim::Duration::from_ms(100);
/// Period of the table expiry sweep (§18.3 leaves it to the
/// implementation).
inline constexpr sim::Duration kHousekeepingInterval =
    sim::Duration::from_ms(500);

inline constexpr sim::Duration kNeighbHoldTime =
    sim::Duration::from_seconds(6.0);  // 3 x REFRESH_INTERVAL
inline constexpr sim::Duration kTopHoldTime =
    sim::Duration::from_seconds(15.0);  // 3 x TC_INTERVAL
inline constexpr sim::Duration kDupHoldTime = sim::Duration::from_seconds(30.0);
inline constexpr sim::Duration kMidHoldTime =
    sim::Duration::from_seconds(15.0);  // 3 x MID_INTERVAL
inline constexpr sim::Duration kHnaHoldTime =
    sim::Duration::from_seconds(15.0);

// Message types (§18.4). kData is a local extension used as the carrier of
// the IDS investigation protocol (outside the RFC-reserved 0..127 range).
enum class MessageType : std::uint8_t {
  kHello = 1,
  kTc = 2,
  kMid = 3,
  kHna = 4,
  kData = 200,
};

// Willingness (§18.8).
enum class Willingness : std::uint8_t {
  kNever = 0,
  kLow = 1,
  kDefault = 3,
  kHigh = 6,
  kAlways = 7,
};

// Link codes (§18.5/§18.6).
enum class LinkType : std::uint8_t {
  kUnspec = 0,
  kAsym = 1,
  kSym = 2,
  kLost = 3,
};

enum class NeighborType : std::uint8_t {
  kNotNeigh = 0,
  kSymNeigh = 1,
  kMprNeigh = 2,
};

/// Packs (neighbor type, link type) into the wire link code (§6.1.1).
constexpr std::uint8_t make_link_code(LinkType lt, NeighborType nt) {
  return static_cast<std::uint8_t>((static_cast<unsigned>(nt) << 2) |
                                   static_cast<unsigned>(lt));
}
constexpr LinkType link_type_of(std::uint8_t code) {
  return static_cast<LinkType>(code & 0x03);
}
constexpr NeighborType neighbor_type_of(std::uint8_t code) {
  return static_cast<NeighborType>((code >> 2) & 0x03);
}

inline constexpr std::uint8_t kDefaultTtl = 255;

}  // namespace manet::olsr
