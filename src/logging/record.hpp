#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <ranges>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/node_id.hpp"
#include "sim/time.hpp"

namespace manet::logging {

/// The closed set of audit-log record kinds: the 27 the routing daemon
/// (olsr::Agent) writes, then two the detection layer once synthesized.
/// Nothing writes those two any more, but their codes stay: they are audit
/// log v3 and checkpoint v4 codes.
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
  kMprFwdTimeout,  ///< unwritten: a selected MPR never echoed our TC
  kFwdAuditFail,   ///< unwritten: a failing forwarding-audit window
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

/// One field of a kind's schema: its text key and how its value is
/// stored.
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

/// How typed values become a record's words, shared by LogRecord's
/// constructor and LogStore::append (which writes them straight into its
/// arena): the kind a C++ value fills, the words it takes, and its words.
namespace values {

template <typename T>
constexpr FieldKind kind_of() {
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
std::size_t width(const T& value) {
  if constexpr (kind_of<T>() == FieldKind::kIdList)
    return 1 + std::ranges::size(value);
  else
    return kind_of<T>() == FieldKind::kId ? 1 : 2;
}

/// Throws std::invalid_argument unless `kinds` fill `event`'s schema in
/// order (data_drop's fixed reason takes no value).
void check_kinds(Event event, std::initializer_list<FieldKind> kinds);
/// A list's count word; throws std::invalid_argument past 32 bits.
std::uint32_t list_size(std::size_t n);

inline net::NodeId* put_int(net::NodeId* out, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  out[0] = net::NodeId{static_cast<std::uint32_t>(u)};
  out[1] = net::NodeId{static_cast<std::uint32_t>(u >> 32)};
  return out + 2;
}

/// Writes `value`'s words at `out`; returns the end of what it wrote.
template <typename T>
net::NodeId* put(net::NodeId* out, const T& value) {
  if constexpr (kind_of<T>() == FieldKind::kId) {
    *out = value;
    return out + 1;
  } else if constexpr (kind_of<T>() == FieldKind::kIdList) {
    *out = net::NodeId{list_size(std::ranges::size(value))};
    return std::ranges::copy(value, out + 1).out;
  } else {
    return put_int(out, static_cast<std::int64_t>(value));
  }
}

}  // namespace values

/// One audit-log record of a node's routing daemon, read in place. The paper's IDS is log-based: it never
/// inspects protocol state directly, only these records, read through the
/// typed accessors below. Text exists only at the I/O edge
/// (logging/format.hpp).
///
/// The values sit in schema order in one run of 32-bit words: an id is one
/// word, an integer its low and high halves, a list a count word and then
/// its ids. The words are held as NodeId, so an id list reads in place as a
/// span. There is no key per field. A view is trivially copyable and lasts
/// as long as the words it points at: a LogStore's until the store's next
/// append or restore, a LogRecord's until the record changes.
class RecordView {
 public:
  sim::Time time;
  net::NodeId node;  ///< the node whose daemon wrote the record

  RecordView() = default;
  RecordView(sim::Time at, net::NodeId by, Event event,
             const net::NodeId* words)
      : time{at}, node{by}, event_{event}, words_{words} {}

  Event event() const { return event_; }

  /// Typed accessors by key. A key the event's schema lacks, or holds as
  /// another kind, is a programming error: std::invalid_argument. The
  /// span points at the record's words.
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

  /// All value words, in schema order.
  std::span<const net::NodeId> words() const;

  /// Same time, node, event and values.
  friend bool operator==(const RecordView& a, const RecordView& b);

 private:
  std::size_t offset_of(Key key, FieldKind kind) const;
  std::int64_t integer_at(std::size_t at) const {
    return static_cast<std::int64_t>(
        std::uint64_t{words_[at].value()} |
        std::uint64_t{words_[at + 1].value()} << 32);
  }
  std::span<const net::NodeId> list_at(std::size_t at) const {
    return {words_ + at + 1, words_[at].value()};
  }

  Event event_ = Event::kDaemonStart;
  const net::NodeId* words_ = nullptr;
};
static_assert(std::is_trivially_copyable_v<RecordView>);

/// An owning record: what decoders fill (the text parser, the binary
/// codec) and tests build. It reads through its
/// view (the same accessors as RecordView) and converts to one wherever a
/// reader takes a RecordView.
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
  LogRecord(sim::Time at, net::NodeId by, Event event, const Values&... vals)
      : time{at}, node{by}, event_{event} {
    values::check_kinds(event, {values::kind_of<Values>()...});
    words_.resize((std::size_t{0} + ... + values::width(vals)));
    [[maybe_unused]] net::NodeId* out = words_.data();
    ((out = values::put(out, vals)), ...);
  }

  /// An owning copy of a record read in place.
  explicit LogRecord(const RecordView& view)
      : time{view.time}, node{view.node}, event_{view.event()} {
    const auto words = view.words();
    words_.assign(words.begin(), words.end());
  }

  RecordView view() const { return {time, node, event_, words_.data()}; }
  operator RecordView() const { return view(); }  // NOLINT: a view of this

  Event event() const { return event_; }
  net::NodeId id(Key key) const { return view().id(key); }
  std::int64_t integer(Key key) const { return view().integer(key); }
  std::span<const net::NodeId> ids(Key key) const { return view().ids(key); }
  template <typename Visit>
  void for_each_value(Visit&& visit) const {
    view().for_each_value(std::forward<Visit>(visit));
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
    words_.resize(words_.size() + 2);
    values::put_int(words_.data() + words_.size() - 2, v);
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
  Event event_ = Event::kDaemonStart;
  std::vector<net::NodeId> words_;
};

}  // namespace manet::logging
