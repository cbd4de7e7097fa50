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
  /// or malformed (the IDS treats that as a corrupt log line). The view
  /// points into this record.
  std::string_view field_or_throw(std::string_view key) const;
  net::NodeId node_field(std::string_view key) const;
  std::int64_t int_field(std::string_view key) const;
  std::vector<net::NodeId> node_list_field(std::string_view key) const;

  friend bool operator==(const LogRecord&, const LogRecord&) = default;
};

/// Builds the '|'-separated list form used in record fields.
std::string join_node_list(const std::vector<net::NodeId>& ids);

/// Parses the entries of a '|'-separated node list in place, in order, and
/// hands each to `visit` until it returns false; returns false iff the walk
/// stopped early. An empty list has no entries; an empty or malformed entry
/// throws std::invalid_argument when the walk reaches it.
template <typename Visit>
bool for_each_listed(std::string_view list, Visit&& visit) {
  if (list.empty()) return true;
  for (;;) {
    const auto sep = list.find('|');
    if (!visit(net::NodeId::parse(list.substr(0, sep)))) return false;
    if (sep == std::string_view::npos) return true;
    list.remove_prefix(sep + 1);
  }
}

}  // namespace manet::logging
