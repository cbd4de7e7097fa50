#include "logging/record.hpp"

#include <charconv>
#include <stdexcept>

namespace manet::logging {

std::optional<std::string_view> LogRecord::field(std::string_view key) const {
  for (const auto& [k, v] : fields)
    if (k == key) return std::string_view{v};
  return std::nullopt;
}

std::string_view LogRecord::field_or_throw(std::string_view key) const {
  auto v = field(key);
  if (!v)
    throw std::invalid_argument{"log record missing field: " +
                                std::string{key}};
  return *v;
}

net::NodeId LogRecord::node_field(std::string_view key) const {
  return net::NodeId::parse(field_or_throw(key));
}

std::int64_t LogRecord::int_field(std::string_view key) const {
  const auto v = field_or_throw(key);
  std::int64_t out = 0;
  auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || ptr != v.data() + v.size())
    throw std::invalid_argument{"bad integer field " + std::string{key} + "=" +
                                std::string{v}};
  return out;
}

std::vector<net::NodeId> LogRecord::node_list_field(
    std::string_view key) const {
  std::vector<net::NodeId> out;
  for_each_listed(field_or_throw(key), [&out](net::NodeId id) {
    out.push_back(id);
    return true;
  });
  return out;
}

std::string join_node_list(const std::vector<net::NodeId>& ids) {
  std::string out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += '|';
    out += ids[i].to_string();
  }
  return out;
}

}  // namespace manet::logging
