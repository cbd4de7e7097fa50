#include "logging/format.hpp"

#include <charconv>
#include <stdexcept>

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

}  // namespace

std::string format_record(const LogRecord& record) {
  std::string out = "t=" + record.time.to_string() +
                    " node=" + record.node.to_string() +
                    " event=" + record.event;
  for (const auto& [k, v] : record.fields) {
    out += ' ';
    out += k;
    out += '=';
    out += v.empty() ? "-" : v;
  }
  return out;
}

LogRecord parse_record(std::string_view line) {
  LogRecord rec;
  bool have_t = false, have_node = false, have_event = false;

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
    const auto key = token.substr(0, eq);
    auto value = token.substr(eq + 1);
    if (value == "-") value = "";

    if (key == "t") {
      rec.time = parse_time(value);
      have_t = true;
    } else if (key == "node") {
      rec.node = net::NodeId::parse(value);
      have_node = true;
    } else if (key == "event") {
      rec.event = std::string{value};
      have_event = true;
    } else {
      rec.fields.emplace_back(std::string{key}, std::string{value});
    }
  }

  if (!have_t || !have_node || !have_event)
    throw std::invalid_argument{"log line missing t/node/event: " +
                                std::string{line}};
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
