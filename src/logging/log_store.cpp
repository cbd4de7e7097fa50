#include "logging/log_store.hpp"

#include <algorithm>

#include "logging/audit_log.hpp"
#include "logging/format.hpp"

namespace manet::logging {

void LogStore::append(LogRecord record) {
  records_.push_back(std::move(record));
  ++total_appended_;
  while (records_.size() > max_records_) {
    records_.pop_front();
    ++dropped_;
  }
  if (audit_writer_) audit_writer_->line(records_.back());
}

std::vector<LogRecord> LogStore::records_since(sim::Time since) const {
  auto it = std::lower_bound(
      records_.begin(), records_.end(), since,
      [](const LogRecord& r, sim::Time t) { return r.time < t; });
  return {it, records_.end()};
}

std::string LogStore::text_since(sim::Time since) const {
  std::string out;
  for (const auto& r : records_since(since)) {
    out += format_record(r);
    out += '\n';
  }
  return out;
}

}  // namespace manet::logging
