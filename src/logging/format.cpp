#include "logging/format.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <type_traits>

#include "obs/obs.hpp"

namespace manet::logging {
namespace {

sim::Time parse_time(std::string_view v) {
  // "12.345678s"
  if (v.empty() || v.back() != 's')
    throw std::invalid_argument{"bad time: " + std::string{v}};
  v.remove_suffix(1);
  const auto dot = v.find('.');
  if (dot == std::string_view::npos || v.size() - dot - 1 != 6)
    throw std::invalid_argument{"bad time: " + std::string{v}};
  std::int64_t secs = 0;
  std::int64_t micros = 0;
  const auto sec_part = v.substr(0, dot);
  const auto micro_part = v.substr(dot + 1);
  auto r1 = std::from_chars(sec_part.data(), sec_part.data() + sec_part.size(),
                            secs);
  auto r2 = std::from_chars(micro_part.data(),
                            micro_part.data() + micro_part.size(), micros);
  if (r1.ec != std::errc{} || r2.ec != std::errc{} ||
      r1.ptr != sec_part.data() + sec_part.size() ||
      r2.ptr != micro_part.data() + micro_part.size() || secs < 0 ||
      micros < 0)
    throw std::invalid_argument{"bad time: " + std::string{v}};
  return sim::Time::from_us(secs * 1'000'000 + micros);
}

std::int64_t parse_int(std::string_view v) {
  std::int64_t out = 0;
  auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || ptr != v.data() + v.size())
    throw std::invalid_argument{"bad integer: " + std::string{v}};
  return out;
}

constexpr std::string_view kRouteExhausted = "route_exhausted";

[[noreturn]] void bad_field(const char* what, std::string_view line) {
  std::string message = what;
  message += ": ";
  message += line;
  throw std::invalid_argument{message};
}

/// Hands each space-separated `key=value` token of `line` to
/// `visit(key, value)`, in order.
template <typename Visit>
void for_each_token(std::string_view line, Visit&& visit) {
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    if (pos >= line.size()) break;
    const auto end = line.find(' ', pos);
    const auto token =
        line.substr(pos, end == std::string_view::npos ? line.size() - pos
                                                       : end - pos);
    pos = end == std::string_view::npos ? line.size() : end + 1;

    const auto eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0)
      throw std::invalid_argument{"bad log token: " + std::string{token}};
    visit(token.substr(0, eq), token.substr(eq + 1));
  }
}

bool is_header(std::string_view key) {
  return key == "t" || key == "node" || key == "event";
}

}  // namespace

std::string format_record(const RecordView& record) {
  obs::hit(obs::Hot::kLogTextRecords);
  std::string out = "t=" + record.time.to_string() +
                    " node=" + record.node.to_string() + " event=";
  out += schema(record.event()).name;
  record.for_each_value([&out](const FieldSpec& field, const auto& value) {
    using Value = std::decay_t<decltype(value)>;
    out += ' ';
    out += key_name(field.key);
    out += '=';
    if constexpr (std::is_same_v<Value, net::NodeId>) {
      out += value.to_string();
    } else if constexpr (std::is_same_v<Value, std::int64_t>) {
      out += std::to_string(value);
    } else if constexpr (std::is_same_v<Value, std::nullopt_t>) {
      out += kRouteExhausted;
    } else if (value.empty()) {
      out += '-';
    } else {
      for (std::size_t i = 0; i < value.size(); ++i) {
        if (i > 0) out += '|';
        out += value[i].to_string();
      }
    }
  });
  return out;
}

LogRecord parse_record(std::string_view line) {
  obs::hit(obs::Hot::kLogTextRecords);
  // The header tokens first, wherever they sit; then the fields, which
  // must follow the event's schema in order.
  LogRecord rec;
  bool have_t = false, have_node = false;
  std::optional<Event> event;
  for_each_token(line, [&](std::string_view key, std::string_view value) {
    if (key == "t") {
      rec.time = parse_time(value);
      have_t = true;
    } else if (key == "node") {
      rec.node = net::NodeId::parse(value);
      have_node = true;
    } else if (key == "event") {
      event = event_named(value);
      if (!event) bad_field("unknown log event", line);
    } else if (!key_named(key)) {
      bad_field("unknown log field", line);
    }
  });
  if (!have_t || !have_node || !event)
    throw std::invalid_argument{"log line missing t/node/event: " +
                                std::string{line}};

  const auto fields = schema(*event).fields;
  std::size_t next = 0;
  rec.reset();
  for_each_token(line, [&](std::string_view key, std::string_view value) {
    if (is_header(key)) return;
    if (next == fields.size()) bad_field("extra log field", line);
    const auto field = fields[next++];
    if (key != key_name(field.key)) bad_field("unexpected log field", line);
    switch (field.kind) {
      case FieldKind::kId:
        rec.push_id(net::NodeId::parse(value));
        break;
      case FieldKind::kInt:
        rec.push_int(parse_int(value));
        break;
      case FieldKind::kIdList: {
        // "-" is the empty list; otherwise '|'-separated ids.
        if (value == "-") {
          rec.push_count(0);
          break;
        }
        rec.push_count(
            static_cast<std::uint32_t>(1 + std::ranges::count(value, '|')));
        std::size_t start = 0;
        for (;;) {
          const auto sep = value.find('|', start);
          rec.push_id(net::NodeId::parse(value.substr(start, sep - start)));
          if (sep == std::string_view::npos) break;
          start = sep + 1;
        }
        break;
      }
      case FieldKind::kRouteExhausted:
        if (value != kRouteExhausted) bad_field("bad log reason", line);
        break;
    }
  });
  if (next < fields.size()) bad_field("missing log field", line);
  rec.finish(*event);
  return rec;
}

std::vector<LogRecord> parse_log(std::string_view text) {
  std::vector<LogRecord> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    auto end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const auto line = text.substr(start, end - start);
    if (!line.empty()) out.push_back(parse_record(line));
    if (end == text.size()) break;
    start = end + 1;
  }
  return out;
}

}  // namespace manet::logging
