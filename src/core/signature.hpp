#pragma once

#include <functional>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "logging/record.hpp"
#include "sim/time.hpp"

namespace manet::core {

/// Predicate over one audit-log record, read in place.
struct EventPattern {
  std::string name;
  std::function<bool(const logging::RecordView&)> match;
};

/// One step of a signature. `after` lists indices of steps that must have
/// matched earlier — the paper defines a signature as a *partially ordered*
/// sequence of events, so steps without mutual ordering may interleave.
struct SignatureStep {
  EventPattern pattern;
  std::vector<std::size_t> after;
  bool optional = false;
};

/// An intrusion signature: steps + time window + optional correlation.
struct Signature {
  std::string name;
  /// All matched records must fall within this window.
  sim::Duration window = sim::Duration::from_seconds(10.0);
  std::vector<SignatureStep> steps;
  /// When set, every matched record must carry this id field with one
  /// shared value (e.g. correlate kOrig to tie a burst to one originator).
  std::optional<logging::Key> correlate_field;
  /// The records a partial match holds, indexed by step; unmatched steps
  /// are empty. A partial outlives the scan that fed its records, so it
  /// keeps owning copies of them.
  using Matched = std::span<const std::optional<logging::LogRecord>>;
  /// Cross-record constraint evaluated on completion.
  std::function<bool(Matched)> constraint;
};

/// A completed signature match.
struct SignatureMatch {
  std::string signature;
  std::vector<logging::LogRecord> records;  ///< in match order
  sim::Time first_event;
  sim::Time last_event;
  net::NodeId correlated;  ///< value of correlate_field, if any
};

/// Streaming matcher: feed log records in time order; completed
/// matches accumulate and can be drained. Partial matches expire once their
/// window passes, so memory stays bounded.
class SignatureMatcher {
 public:
  void add_signature(Signature signature);

  /// Feeds one record; returns matches completed by this record.
  std::vector<SignatureMatch> feed(const logging::RecordView& record);

  /// Feeds a batch in order (convenience for scan-based detectors): a
  /// LogStore's records in place, or owned records.
  template <typename Records>
  std::vector<SignatureMatch> feed_all(const Records& records) {
    std::vector<SignatureMatch> out;
    for (const logging::RecordView r : records) {
      auto matches = feed(r);
      out.insert(out.end(), std::make_move_iterator(matches.begin()),
                 std::make_move_iterator(matches.end()));
    }
    return out;
  }

  std::size_t signature_count() const { return signatures_.size(); }
  std::size_t partial_count() const;

 private:
  struct Partial {
    std::size_t signature_index;
    /// Matched record per step (nullopt until the step matches).
    std::vector<std::optional<logging::LogRecord>> matched;
    sim::Time first_event;
    std::optional<net::NodeId> correlated;
  };

  bool try_extend(Partial& partial, const logging::RecordView& record);
  bool is_complete(const Partial& partial) const;
  bool is_complete_except_constraint(const Partial& partial) const;
  bool constraint_passes(const Partial& partial) const;

  std::vector<Signature> signatures_;
  std::vector<Partial> partials_;
};

}  // namespace manet::core
