#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace manet::net {

/// Identifier of a node; doubles as the OLSR "main address" of the node.
/// A strong type so node ids, sequence numbers and counts cannot be mixed.
class NodeId {
 public:
  constexpr NodeId() = default;
  explicit constexpr NodeId(std::uint32_t value) : value_{value} {}

  constexpr std::uint32_t value() const { return value_; }
  constexpr bool valid() const { return value_ != kInvalid; }
  constexpr auto operator<=>(const NodeId&) const = default;

  /// "n7" — compact form used in logs and test output.
  std::string to_string() const;

  /// Parses the "n7" form; throws std::invalid_argument on malformed input.
  static NodeId parse(std::string_view text);

  static constexpr std::uint32_t kInvalid = 0xFFFFFFFFu;

 private:
  std::uint32_t value_ = kInvalid;
};

inline constexpr NodeId kInvalidNode{};

}  // namespace manet::net

template <>
struct std::hash<manet::net::NodeId> {
  std::size_t operator()(const manet::net::NodeId& id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value());
  }
};
