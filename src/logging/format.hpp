#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "logging/record.hpp"

namespace manet::logging {

/// Text form of a record, one line, no trailing newline, fields in schema
/// order; an empty list is "-":
///   t=12.345678s node=n3 event=hello_recv from=n5 seq=9 sym=n1|n2 ...
/// The text exists only at the I/O edge (dumps, tools, tests): no
/// detection path renders or parses it.
std::string format_record(const RecordView& record);

/// Parses one line produced by format_record. Throws std::invalid_argument
/// on malformed input: missing t/node/event, bad tokens or values, an
/// unknown event or key, and fields missing from, added to or out of the
/// event's schema order.
LogRecord parse_record(std::string_view line);

/// Parses a whole log (newline-separated); blank lines are skipped.
std::vector<LogRecord> parse_log(std::string_view text);

}  // namespace manet::logging
