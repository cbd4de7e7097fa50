#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <ranges>

#include "logging/record.hpp"

namespace manet::logging {

class AuditWriter;

/// Append-only audit log of one node's routing daemon, with bounded
/// retention. The IDS reads the typed records in place, in two ways: the
/// signature scan walks each growth by time (`records_since`), and cursor
/// readers — the detector's pipeline feed and the investigations'
/// core::LogIndex — walk the new records by absolute index (`base_index`,
/// `at`).
class LogStore {
 public:
  explicit LogStore(std::size_t max_records = 100'000)
      : max_records_{max_records} {}

  void append(LogRecord record);

  std::size_t size() const { return records_.size(); }
  const LogRecord& at(std::size_t i) const { return records_.at(i); }

  /// The retained records with time >= since, in place (they are appended
  /// in time order). The view lasts until the next append or restore.
  using Growth = std::ranges::subrange<std::deque<LogRecord>::const_iterator>;
  Growth records_since(sim::Time since) const {
    return {std::ranges::lower_bound(records_, since, {}, &LogRecord::time),
            records_.end()};
  }

  /// Writer mode: every appended record is also emitted as a kLine frame of
  /// the binary audit-log format (logging/audit_log.hpp) — the recording
  /// half of the offline detection pipeline. The writer must outlive this
  /// store (or be detached with nullptr); retention dropping old records
  /// never rewrites frames already emitted.
  void set_audit_writer(AuditWriter* writer) { audit_writer_ = writer; }
  AuditWriter* audit_writer() const { return audit_writer_; }

  /// Absolute index of the oldest retained record: records_[i] is the
  /// (base_index() + i)-th record ever appended. Lets cursor-based readers
  /// (the detector's pipeline feed) survive retention drops.
  std::uint64_t base_index() const {
    return total_appended_ - records_.size();
  }

  std::uint64_t total_appended() const { return total_appended_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Checkpoint surface: the retained window plus the lifetime counters
  /// (capacity stays whatever this store was constructed with).
  const std::deque<LogRecord>& records() const { return records_; }
  void restore(std::deque<LogRecord> records, std::uint64_t total_appended,
               std::uint64_t dropped) {
    records_ = std::move(records);
    total_appended_ = total_appended;
    dropped_ = dropped;
  }

 private:
  std::size_t max_records_;
  std::deque<LogRecord> records_;
  AuditWriter* audit_writer_ = nullptr;
  std::uint64_t total_appended_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace manet::logging
