#pragma once

#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <ranges>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "net/node_id.hpp"
#include "sim/time.hpp"

namespace manet::logging {

/// The closed set of audit-log record kinds: the 27 the routing daemon
/// (olsr::Agent) writes, then the two the detection layer synthesizes.
/// The value is the event code of the binary formats, so appending a kind
/// is a format change and reordering one is a silent corruption.
enum class Event : std::uint8_t {
  kDaemonStart,
  kDaemonStop,
  kHelloSent,
  kTcSent,
  kMidSent,
  kHnaSent,
  kPacketParseError,
  kOwnFwdHeard,
  kHelloRecv,
  kLinkSym,
  kLinkLost,
  kTwoHopUpdate,
  kMprSelectorAdd,
  kMprSelectorDel,
  kFwdEcho,
  kTcRecv,
  kMidRecv,
  kHnaRecv,
  kMsgFwd,
  kTablesReset,
  kDataNoRoute,
  kDataSent,
  kDataRecv,
  kDataDrop,
  kDataFwd,
  kMprChanged,
  kRoutesChanged,
  kMprFwdTimeout,  ///< core::Detector: a selected MPR never echoed our TC
  kFwdAuditFail,   ///< core::ForwardingAuditor: a failing audit window
};
inline constexpr std::size_t kEventCount =
    static_cast<std::size_t>(Event::kFwdAuditFail) + 1;

/// The field keys of every schema.
enum class Key : std::uint8_t {
  kAdded,
  kAdv,
  kAnsn,
  kApplied,
  kAsym,
  kBy,
  kCount,
  kDest,
  kExpected,
  kForwarded,
  kFrom,
  kIfaces,
  kListsUs,
  kMpr,
  kMprs,
  kNbr,
  kNeigh,
  kNext,
  kNodes,
  kOrig,
  kProto,
  kReason,
  kRemoved,
  kRoute,
  kSeq,
  kSize,
  kSrc,
  kSym,
  kType,
  kVia,
  kWill,
};

/// What one field holds.
enum class FieldKind : std::uint8_t {
  kId,      ///< one node id
  kInt,     ///< a signed 64-bit integer
  kIdList,  ///< a sequence of node ids
  /// data_drop's `reason`, which is always `route_exhausted`: it has a
  /// text form but no stored value.
  kRouteExhausted,
};

struct FieldSpec {
  Key key;
  FieldKind kind;
};

/// One kind's schema: its text name and its fields, in order.
struct EventSchema {
  std::string_view name;
  std::span<const FieldSpec> fields;
};

/// The schema table is the only place that knows the text names.
const EventSchema& schema(Event event);
std::string_view key_name(Key key);
/// The kind whose text name is `name`; nullopt when there is none.
std::optional<Event> event_named(std::string_view name);
/// The key whose text name is `name`; nullopt when there is none.
std::optional<Key> key_named(std::string_view name);

/// A value that fills an id-list field.
template <typename T>
concept IdRange = std::ranges::sized_range<T> &&
                  std::same_as<std::ranges::range_value_t<T>, net::NodeId>;

/// One audit-log record of a node's routing daemon (or one the detector
/// synthesizes). The paper's IDS is log-based: it never inspects protocol
/// state directly, only these records, read through the typed accessors
/// below. Text exists only at the I/O edge (logging/format.hpp).
///
/// The values sit in schema order in one block of 32-bit words: an id is
/// one word, an integer its low and high halves, a list a count word and
/// then its ids. The words are held as NodeId, so an id list reads in
/// place as a span. There is no key per field, and copying a record
/// copies one block.
class LogRecord {
 public:
  sim::Time time;
  net::NodeId node;  ///< the node whose daemon wrote the record

  LogRecord() = default;

  /// A record of `event` with its values in schema order: a NodeId for an
  /// id, any integer or enum for an integer (kept in the int64 range), a
  /// sized range of NodeId for a list. data_drop's fixed reason takes no
  /// value. Values that do not match the schema throw
  /// std::invalid_argument.
  template <typename... Values>
  LogRecord(sim::Time at, net::NodeId by, Event event, const Values&... values)
      : time{at}, node{by}, event_{event} {
    words_.reserve((std::size_t{0} + ... + width(values)));
    (push(values), ...);
    check_kinds({kind_of<Values>()...});
  }

  Event event() const { return event_; }

  /// Typed accessors by key. A key the event's schema lacks, or holds as
  /// another kind, is a programming error: std::invalid_argument. The
  /// span points into this record.
  net::NodeId id(Key key) const {
    return words_[offset_of(key, FieldKind::kId)];
  }
  std::int64_t integer(Key key) const {
    return integer_at(offset_of(key, FieldKind::kInt));
  }
  std::span<const net::NodeId> ids(Key key) const {
    return list_at(offset_of(key, FieldKind::kIdList));
  }

  /// Visits the fields in schema order: `visit(field, value)` with value a
  /// NodeId, a std::int64_t, a std::span<const NodeId>, or, for a
  /// kRouteExhausted field, std::nullopt.
  template <typename Visit>
  void for_each_value(Visit&& visit) const {
    std::size_t at = 0;
    for (const auto& field : schema(event_).fields) {
      switch (field.kind) {
        case FieldKind::kId:
          visit(field, words_[at]);
          at += 1;
          break;
        case FieldKind::kInt:
          visit(field, integer_at(at));
          at += 2;
          break;
        case FieldKind::kIdList: {
          const auto list = list_at(at);
          visit(field, list);
          at += 1 + list.size();
          break;
        }
        case FieldKind::kRouteExhausted:
          visit(field, std::nullopt);
          break;
      }
    }
  }

  /// Decoder surface (the text parser and the binary codec): `reset`
  /// empties the values, keeping the storage; the decoder pushes each
  /// field of its event's schema in order, a list as its count followed by
  /// that many ids; `finish` then sets the event, throwing
  /// std::invalid_argument unless the values fill its schema exactly.
  /// Until then the record reads as a daemon_start, so a decode that stops
  /// half way never leaves a record whose accessors overrun.
  void reset() {
    event_ = Event::kDaemonStart;
    words_.clear();
  }
  void finish(Event event);
  void push_id(net::NodeId id) { words_.push_back(id); }
  void push_int(std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    words_.push_back(net::NodeId{static_cast<std::uint32_t>(u)});
    words_.push_back(net::NodeId{static_cast<std::uint32_t>(u >> 32)});
  }
  void push_count(std::uint32_t n) { words_.push_back(net::NodeId{n}); }
  /// Appends `n` id words at once and returns them for the decoder to
  /// fill: a list's ids after its push_count.
  std::span<net::NodeId> push_ids(std::size_t n) {
    words_.resize(words_.size() + n);
    return std::span{words_}.last(n);
  }

  friend bool operator==(const LogRecord&, const LogRecord&) = default;

 private:
  template <typename T>
  static constexpr FieldKind kind_of() {
    if constexpr (std::same_as<T, net::NodeId>) {
      return FieldKind::kId;
    } else if constexpr (IdRange<T>) {
      return FieldKind::kIdList;
    } else {
      static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                    "a record value is a NodeId, an integer or an id list");
      return FieldKind::kInt;
    }
  }
  template <typename T>
  static std::size_t width(const T& value) {
    if constexpr (kind_of<T>() == FieldKind::kIdList)
      return 1 + std::ranges::size(value);
    else
      return kind_of<T>() == FieldKind::kId ? 1 : 2;
  }
  template <typename T>
  void push(const T& value) {
    if constexpr (kind_of<T>() == FieldKind::kId) {
      push_id(value);
    } else if constexpr (kind_of<T>() == FieldKind::kIdList) {
      push_count(list_size(std::ranges::size(value)));
      for (const net::NodeId id : value) push_id(id);
    } else {
      push_int(static_cast<std::int64_t>(value));
    }
  }

  static std::uint32_t list_size(std::size_t n);
  void check_kinds(std::initializer_list<FieldKind> kinds) const;
  /// Words the field of `kind` starting at word `at` takes.
  std::size_t width_at(FieldKind kind, std::size_t at) const;
  std::size_t offset_of(Key key, FieldKind kind) const;
  std::int64_t integer_at(std::size_t at) const {
    return static_cast<std::int64_t>(
        std::uint64_t{words_[at].value()} |
        std::uint64_t{words_[at + 1].value()} << 32);
  }
  std::span<const net::NodeId> list_at(std::size_t at) const {
    return std::span{words_}.subspan(at + 1, words_[at].value());
  }

  Event event_ = Event::kDaemonStart;
  std::vector<net::NodeId> words_;
};

}  // namespace manet::logging
