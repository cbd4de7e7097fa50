#include "logging/log_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "logging/audit_log.hpp"
#include "obs/obs.hpp"

namespace manet::logging {

void LogStore::append(const RecordView& record) {
  copy_record(record);
  close_record();
}

RecordView LogStore::at(std::size_t i) const {
  if (i >= size()) throw std::out_of_range{"LogStore::at"};
  return view_at(begin_ + i);
}

net::NodeId* LogStore::open_record(sim::Time at, net::NodeId by, Event event,
                                   std::size_t width) {
  if (pages_.empty() || pages_.back().rows.size() == kPageRows) {
    if (!pages_.empty()) pages_.back().words.shrink_to_fit();
    // A full page's words predict the next one's; the first page starts
    // small and grows.
    const std::size_t words_hint =
        pages_.empty() ? 0 : pages_.back().words.size();
    auto& page = pages_.emplace_back();
    page.rows.reserve(end_ < kPageRows ? kFirstRows : kPageRows);
    page.words.reserve(words_hint);
  }
  Page& page = pages_.back();
  const std::size_t offset = page.words.size();
  if (offset >= std::size_t{1} << (32 - kEventBits))
    throw std::length_error{"audit log page holds too many value words"};
  if (page.rows.size() == page.rows.capacity())
    page.rows.reserve(std::min(2 * page.rows.size(), kPageRows));
  page.rows.push_back({at, by,
                       static_cast<std::uint32_t>(offset << kEventBits) |
                           static_cast<std::uint32_t>(event)});
  page.words.resize(offset + width);
  return page.words.data() + offset;
}

void LogStore::copy_record(const RecordView& record) {
  const auto words = record.words();
  std::ranges::copy(words, open_record(record.time, record.node,
                                       record.event(), words.size()));
}

void LogStore::close_record() {
  obs::hit(obs::Hot::kLogRecords);
  ++end_;
  ++total_appended_;
  if (audit_writer_) audit_writer_->line(view_at(end_ - 1));
  while (size() > max_records_) {
    ++begin_;
    ++dropped_;
    if (begin_ >> kPageBits > first_page_) {
      pages_.erase(pages_.begin());
      ++first_page_;
    }
  }
}

void LogStore::restore(std::span<const LogRecord> records,
                       std::uint64_t total_appended, std::uint64_t dropped) {
  pages_.clear();
  first_page_ = begin_ = end_ = 0;
  for (const auto& record : records) {
    copy_record(record);
    ++end_;
  }
  total_appended_ = total_appended;
  dropped_ = dropped;
}

}  // namespace manet::logging
