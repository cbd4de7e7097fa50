#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/node_id.hpp"
#include "sim/time.hpp"

namespace manet::logging {

/// One audit-log line emitted by the routing daemon. The paper's IDS is
/// log-based: it never inspects protocol state directly, only these records
/// (after a text round-trip through the formatter/parser).
///
/// Field values must not contain spaces; lists use '|' separators
/// (e.g. neigh=n1|n2|n4). Keys are lower_snake_case.
struct LogRecord {
  sim::Time time;
  net::NodeId node;   ///< the node whose daemon wrote the line
  std::string event;  ///< e.g. "hello_recv", "mpr_changed"
  std::vector<std::pair<std::string, std::string>> fields;

  LogRecord& with(std::string key, std::string value) {
    fields.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  LogRecord& with(std::string key, net::NodeId id) {
    return with(std::move(key), id.to_string());
  }
  LogRecord& with(std::string key, std::int64_t v) {
    return with(std::move(key), std::to_string(v));
  }

  /// First value for `key`, if present.
  std::optional<std::string_view> field(std::string_view key) const;

  /// Typed accessors; throw std::invalid_argument when the field is missing
  /// or malformed (the IDS treats that as a corrupt log line).
  std::string field_or_throw(std::string_view key) const;
  net::NodeId node_field(std::string_view key) const;
  std::int64_t int_field(std::string_view key) const;
  std::vector<net::NodeId> node_list_field(std::string_view key) const;

  friend bool operator==(const LogRecord&, const LogRecord&) = default;
};

/// Builds the '|'-separated list form used in record fields.
std::string join_node_list(const std::vector<net::NodeId>& ids);

/// Splits a '|'-separated list; empty string yields an empty vector.
std::vector<std::string> split_list(std::string_view value);

}  // namespace manet::logging
