#include "logging/record.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <string>

namespace manet::logging {
namespace {

constexpr auto kId = FieldKind::kId;
constexpr auto kInt = FieldKind::kInt;
constexpr auto kIdList = FieldKind::kIdList;

constexpr FieldSpec kHelloSent[] = {{Key::kSeq, kInt},
                                    {Key::kNeigh, kIdList},
                                    {Key::kAsym, kIdList},
                                    {Key::kWill, kInt}};
constexpr FieldSpec kTcSent[] = {
    {Key::kSeq, kInt}, {Key::kAnsn, kInt}, {Key::kAdv, kIdList}};
constexpr FieldSpec kMidSent[] = {{Key::kSeq, kInt}, {Key::kIfaces, kIdList}};
constexpr FieldSpec kHnaSent[] = {{Key::kSeq, kInt}, {Key::kCount, kInt}};
constexpr FieldSpec kFrom[] = {{Key::kFrom, kId}};
constexpr FieldSpec kOwnFwdHeard[] = {
    {Key::kBy, kId}, {Key::kSeq, kInt}, {Key::kType, kInt}};
constexpr FieldSpec kHelloRecv[] = {
    {Key::kFrom, kId},      {Key::kSeq, kInt},     {Key::kSym, kIdList},
    {Key::kAsym, kIdList}, {Key::kListsUs, kInt}, {Key::kWill, kInt}};
constexpr FieldSpec kNbr[] = {{Key::kNbr, kId}};
constexpr FieldSpec kTwoHopUpdate[] = {{Key::kVia, kId},
                                       {Key::kNodes, kIdList}};
constexpr FieldSpec kFwdEcho[] = {
    {Key::kBy, kId}, {Key::kOrig, kId}, {Key::kSeq, kInt}};
constexpr FieldSpec kTcRecv[] = {
    {Key::kOrig, kId},   {Key::kVia, kId},     {Key::kSeq, kInt},
    {Key::kAnsn, kInt},  {Key::kAdv, kIdList}, {Key::kApplied, kInt}};
constexpr FieldSpec kMidRecv[] = {{Key::kOrig, kId}, {Key::kIfaces, kIdList}};
constexpr FieldSpec kHnaRecv[] = {{Key::kOrig, kId}, {Key::kCount, kInt}};
constexpr FieldSpec kMsgFwd[] = {
    {Key::kType, kInt}, {Key::kOrig, kId}, {Key::kSeq, kInt}};
constexpr FieldSpec kDataNoRoute[] = {{Key::kDest, kId}};
constexpr FieldSpec kDataSent[] = {
    {Key::kDest, kId}, {Key::kProto, kInt}, {Key::kRoute, kIdList}};
constexpr FieldSpec kDataRecv[] = {
    {Key::kSrc, kId}, {Key::kProto, kInt}, {Key::kVia, kId}};
constexpr FieldSpec kDataDrop[] = {
    {Key::kSrc, kId}, {Key::kReason, FieldKind::kRouteExhausted}};
constexpr FieldSpec kDataFwd[] = {
    {Key::kSrc, kId}, {Key::kDest, kId}, {Key::kNext, kId}};
constexpr FieldSpec kMprChanged[] = {{Key::kMprs, kIdList},
                                     {Key::kAdded, kIdList},
                                     {Key::kRemoved, kIdList}};
constexpr FieldSpec kRoutesChanged[] = {
    {Key::kAdded, kIdList}, {Key::kRemoved, kIdList}, {Key::kSize, kInt}};
constexpr FieldSpec kMprFwdTimeout[] = {{Key::kMpr, kId}, {Key::kSeq, kInt}};
constexpr FieldSpec kFwdAuditFail[] = {
    {Key::kMpr, kId}, {Key::kExpected, kInt}, {Key::kForwarded, kInt}};

/// Indexed by Event.
constexpr std::array<EventSchema, kEventCount> kSchemas{{
    {"daemon_start", {}},
    {"daemon_stop", {}},
    {"hello_sent", kHelloSent},
    {"tc_sent", kTcSent},
    {"mid_sent", kMidSent},
    {"hna_sent", kHnaSent},
    {"packet_parse_error", kFrom},
    {"own_fwd_heard", kOwnFwdHeard},
    {"hello_recv", kHelloRecv},
    {"link_sym", kNbr},
    {"link_lost", kNbr},
    {"two_hop_update", kTwoHopUpdate},
    {"mpr_selector_add", kNbr},
    {"mpr_selector_del", kNbr},
    {"fwd_echo", kFwdEcho},
    {"tc_recv", kTcRecv},
    {"mid_recv", kMidRecv},
    {"hna_recv", kHnaRecv},
    {"msg_fwd", kMsgFwd},
    {"tables_reset", {}},
    {"data_no_route", kDataNoRoute},
    {"data_sent", kDataSent},
    {"data_recv", kDataRecv},
    {"data_drop", kDataDrop},
    {"data_fwd", kDataFwd},
    {"mpr_changed", kMprChanged},
    {"routes_changed", kRoutesChanged},
    {"mpr_fwd_timeout", kMprFwdTimeout},
    {"fwd_audit_fail", kFwdAuditFail},
}};

/// Indexed by Key.
constexpr std::string_view kKeyNames[] = {
    "added",   "adv",      "ansn",      "applied", "asym",   "by",
    "count",   "dest",     "expected",  "forwarded", "from", "ifaces",
    "lists_us", "mpr",     "mprs",      "nbr",     "neigh",  "next",
    "nodes",   "orig",     "proto",     "reason",  "removed", "route",
    "seq",     "size",     "src",       "sym",     "type",   "via",
    "will",
};
static_assert(std::size(kKeyNames) ==
              static_cast<std::size_t>(Key::kWill) + 1);

[[noreturn, gnu::cold]] void bad_values(Event event) {
  std::string what = "values do not match the schema of ";
  what += schema(event).name;
  throw std::invalid_argument{what};
}

/// Words the field of `kind` starting at `at` takes.
std::size_t width_at(FieldKind kind, const net::NodeId* at) {
  switch (kind) {
    case FieldKind::kId:
      return 1;
    case FieldKind::kInt:
      return 2;
    case FieldKind::kIdList:
      return 1 + at->value();
    case FieldKind::kRouteExhausted:
      break;
  }
  return 0;
}

}  // namespace

const EventSchema& schema(Event event) {
  return kSchemas[static_cast<std::size_t>(event)];
}

std::string_view key_name(Key key) {
  return kKeyNames[static_cast<std::size_t>(key)];
}

std::optional<Event> event_named(std::string_view name) {
  const auto it = std::ranges::find(kSchemas, name, &EventSchema::name);
  if (it == kSchemas.end()) return std::nullopt;
  return static_cast<Event>(it - kSchemas.begin());
}

std::optional<Key> key_named(std::string_view name) {
  const auto it = std::ranges::find(kKeyNames, name);
  if (it == std::end(kKeyNames)) return std::nullopt;
  return static_cast<Key>(it - std::begin(kKeyNames));
}

namespace values {

std::uint32_t list_size(std::size_t n) {
  if (n > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument{"log record list too long"};
  return static_cast<std::uint32_t>(n);
}

void check_kinds(Event event, std::initializer_list<FieldKind> kinds) {
  auto given = kinds.begin();
  for (const auto& field : schema(event).fields) {
    if (field.kind == FieldKind::kRouteExhausted) continue;
    if (given == kinds.end() || *given != field.kind) bad_values(event);
    ++given;
  }
  if (given != kinds.end()) bad_values(event);
}

}  // namespace values

std::span<const net::NodeId> RecordView::words() const {
  std::size_t at = 0;
  for (const auto& field : schema(event_).fields)
    at += width_at(field.kind, words_ + at);
  return {words_, at};
}

bool operator==(const RecordView& a, const RecordView& b) {
  return a.time == b.time && a.node == b.node && a.event_ == b.event_ &&
         std::ranges::equal(a.words(), b.words());
}

std::size_t RecordView::offset_of(Key key, FieldKind kind) const {
  std::size_t at = 0;
  for (const auto& field : schema(event_).fields) {
    if (field.key == key) {
      if (field.kind != kind) break;
      return at;
    }
    at += width_at(field.kind, words_ + at);
  }
  std::string what{schema(event_).name};
  what += " has no ";
  what += kind == FieldKind::kId    ? "id"
          : kind == FieldKind::kInt ? "integer"
                                    : "list";
  what += " field ";
  what += key_name(key);
  throw std::invalid_argument{what};
}

void LogRecord::finish(Event event) {
  std::size_t at = 0;
  for (const auto& field : schema(event).fields) {
    if (field.kind == FieldKind::kIdList && at >= words_.size())
      bad_values(event);
    at += width_at(field.kind, words_.data() + at);
  }
  if (at != words_.size()) bad_values(event);
  event_ = event;
}

}  // namespace manet::logging
