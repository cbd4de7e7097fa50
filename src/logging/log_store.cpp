#include "logging/log_store.hpp"

#include "logging/audit_log.hpp"
#include "obs/obs.hpp"

namespace manet::logging {

void LogStore::append(LogRecord record) {
  obs::hit(obs::Hot::kLogRecords);
  records_.push_back(std::move(record));
  ++total_appended_;
  while (records_.size() > max_records_) {
    records_.pop_front();
    ++dropped_;
  }
  if (audit_writer_) audit_writer_->line(records_.back());
}

}  // namespace manet::logging
