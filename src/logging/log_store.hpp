#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <ranges>
#include <span>
#include <vector>

#include "logging/record.hpp"

namespace manet::logging {

class AuditWriter;

/// Append-only audit log of one node's routing daemon, with bounded
/// retention. The IDS reads the typed records in place, as RecordViews,
/// through absolute-index cursors (`base_index`, `records_from`): the
/// detector's scan and pipeline feed and the investigations'
/// core::LogIndex each walk the records appended since their last read.
///
/// Storage is a table of 16-byte rows (time, node, and the event packed
/// with the offset of the record's first value word) over an arena of
/// value words, both cut into pages of kPageRows records: a page holds its
/// rows and exactly their words, so a record is one row and its words, with
/// no block of its own. The first page grows geometrically up to
/// kPageRows, so a small log stays small; later pages start at full size.
/// Retention frees whole pages from the front.
class LogStore {
 public:
  explicit LogStore(std::size_t max_records = 100'000)
      : max_records_{max_records} {}

  /// Appends a record of `event` stamped `at` by `by`, its values written
  /// straight into the arena. The values are checked against the schema
  /// as LogRecord's constructor checks them (std::invalid_argument, and
  /// nothing is appended).
  template <typename... Values>
  void append(sim::Time at, net::NodeId by, Event event,
              const Values&... vals) {
    values::check_kinds(event, {values::kind_of<Values>()...});
    const std::size_t width = (std::size_t{0} + ... + values::width(vals));
    [[maybe_unused]] net::NodeId* out = open_record(at, by, event, width);
    ((out = values::put(out, vals)), ...);
    close_record();
  }
  /// Appends a copy of a record held elsewhere (a decoded one, or another
  /// store's).
  void append(const RecordView& record);

  class Records;

  std::size_t size() const { return static_cast<std::size_t>(end_ - begin_); }
  /// The i-th retained record (0 is the oldest); std::out_of_range past
  /// the end.
  RecordView at(std::size_t i) const;

  /// Every retained record, oldest first. Views and iterators last until
  /// the next append or restore.
  Records records() const;
  /// The retained records whose absolute index is >= `index`.
  Records records_from(std::uint64_t index) const;

  /// Writer mode: every appended record is also emitted as a kLine frame of
  /// the binary audit-log format (logging/audit_log.hpp) — the recording
  /// half of the offline detection pipeline. The writer must outlive this
  /// store (or be detached with nullptr); retention dropping old records
  /// never rewrites frames already emitted.
  void set_audit_writer(AuditWriter* writer) { audit_writer_ = writer; }
  AuditWriter* audit_writer() const { return audit_writer_; }

  /// Absolute index of the oldest retained record: at(i) is the
  /// (base_index() + i)-th record ever appended. Lets cursor-based readers
  /// survive retention drops.
  std::uint64_t base_index() const { return total_appended_ - size(); }

  std::uint64_t total_appended() const { return total_appended_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Checkpoint surface: records() plus the lifetime counters, and their
  /// inverse (capacity stays whatever this store was constructed with).
  /// Restore copies the records as given, unchecked.
  void restore(std::span<const LogRecord> records,
               std::uint64_t total_appended, std::uint64_t dropped);

  /// Records per page (a power of two).
  static constexpr std::size_t kPageRows = 256;

 private:
  /// First-page rows before its first growth.
  static constexpr std::size_t kFirstRows = 16;
  static constexpr unsigned kPageBits = 8;
  static_assert(kPageRows == std::size_t{1} << kPageBits);
  static constexpr unsigned kEventBits = 5;
  static_assert(kEventCount <= 1u << kEventBits);

  /// One record: the event sits in the low kEventBits of `head`, the
  /// offset of its first word in its page's arena above them.
  struct Row {
    sim::Time time;
    net::NodeId node;
    std::uint32_t head;
  };
  static_assert(sizeof(Row) == 16);

  struct Page {
    std::vector<Row> rows;  ///< at most kPageRows
    std::vector<net::NodeId> words;
  };

  /// Opens a row and returns where its `width` words go.
  net::NodeId* open_record(sim::Time at, net::NodeId by, Event event,
                           std::size_t width);
  /// Opens a row holding a copy of `record` (from another store).
  void copy_record(const RecordView& record);
  /// Counts the record opened last, emits it in writer mode, and applies
  /// retention.
  void close_record();
  /// The record in local slot `slot` (begin_ <= slot < end_).
  RecordView view_at(std::uint64_t slot) const {
    const Page& page = pages_[(slot >> kPageBits) - first_page_];
    const Row& row = page.rows[slot & (kPageRows - 1)];
    return {row.time, row.node,
            static_cast<Event>(row.head & ((1u << kEventBits) - 1)),
            page.words.data() + (row.head >> kEventBits)};
  }

  std::size_t max_records_;
  /// Pages from page number first_page_ on; local slot s is row
  /// s % kPageRows of page s / kPageRows.
  std::vector<Page> pages_;
  std::uint64_t first_page_ = 0;
  std::uint64_t begin_ = 0;  ///< local slot of the oldest retained record
  std::uint64_t end_ = 0;    ///< local slot after the newest record
  AuditWriter* audit_writer_ = nullptr;
  std::uint64_t total_appended_ = 0;
  std::uint64_t dropped_ = 0;
};

/// A run of a store's records, read in place: a random-access range of
/// RecordView (each element is a view made on access).
class LogStore::Records : public std::ranges::view_interface<Records> {
 public:
  class iterator {
   public:
    using iterator_concept = std::random_access_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = RecordView;
    using difference_type = std::ptrdiff_t;

    iterator() = default;

    RecordView operator*() const { return store_->view_at(slot_); }
    RecordView operator[](difference_type n) const { return *(*this + n); }

    iterator& operator++() {
      ++slot_;
      return *this;
    }
    iterator operator++(int) {
      auto old = *this;
      ++slot_;
      return old;
    }
    iterator& operator--() {
      --slot_;
      return *this;
    }
    iterator operator--(int) {
      auto old = *this;
      --slot_;
      return old;
    }
    iterator& operator+=(difference_type n) {
      slot_ += static_cast<std::uint64_t>(n);
      return *this;
    }
    iterator& operator-=(difference_type n) {
      slot_ -= static_cast<std::uint64_t>(n);
      return *this;
    }
    friend iterator operator+(iterator it, difference_type n) {
      return it += n;
    }
    friend iterator operator+(difference_type n, iterator it) {
      return it += n;
    }
    friend iterator operator-(iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const iterator& a, const iterator& b) {
      return static_cast<difference_type>(a.slot_ - b.slot_);
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.slot_ == b.slot_;
    }
    friend auto operator<=>(const iterator& a, const iterator& b) {
      return a.slot_ <=> b.slot_;
    }

   private:
    friend class Records;
    iterator(const LogStore* store, std::uint64_t slot)
        : store_{store}, slot_{slot} {}
    const LogStore* store_ = nullptr;
    std::uint64_t slot_ = 0;
  };

  Records() = default;
  iterator begin() const { return {store_, first_}; }
  iterator end() const { return {store_, last_}; }
  std::size_t size() const { return static_cast<std::size_t>(last_ - first_); }

 private:
  friend class LogStore;
  Records(const LogStore* store, std::uint64_t first, std::uint64_t last)
      : store_{store}, first_{first}, last_{last} {}
  const LogStore* store_ = nullptr;
  std::uint64_t first_ = 0;
  std::uint64_t last_ = 0;
};

inline LogStore::Records LogStore::records() const {
  return {this, begin_, end_};
}

inline LogStore::Records LogStore::records_from(std::uint64_t index) const {
  const std::uint64_t skip = index > base_index() ? index - base_index() : 0;
  return {this, skip < size() ? begin_ + skip : end_, end_};
}

}  // namespace manet::logging

template <>
inline constexpr bool
    std::ranges::enable_borrowed_range<manet::logging::LogStore::Records> =
        true;
