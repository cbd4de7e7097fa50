#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "net/node_id.hpp"
#include "sim/time.hpp"

namespace manet::logging {

/// A value a fixed-width field carries. The wire width is named at each
/// field (u8 .. u64, i64), never inferred from the C++ type: a route's
/// int32 distance travels as u32, a trust counter's int as i64.
template <typename T>
concept WireInt = std::is_integral_v<T> || std::is_enum_v<T>;

/// Little-endian writer behind both binary formats: the audit log
/// (logging/audit_log.hpp) and the checkpoint (faults/checkpoint.hpp).
///
/// Each layout is one *transfer function*, a template over the direction:
/// `transfer_x(IO& io, X& x)` calls one primitive per field. BinaryWriter's
/// primitives take values and append them; BinaryReader's take references
/// and fill them. So the same body saves (IO = BinaryWriter, X const) and
/// loads (IO = BinaryReader), and a field is added, removed or reordered
/// in one place. Load-side validation runs after the transfer.
class BinaryWriter {
 public:
  template <WireInt T>
  void u8(T v) { put(static_cast<std::uint8_t>(v), 1); }
  template <WireInt T>
  void u16(T v) { put(static_cast<std::uint16_t>(v), 2); }
  template <WireInt T>
  void u32(T v) { put(static_cast<std::uint32_t>(v), 4); }
  template <WireInt T>
  void u64(T v) { put(static_cast<std::uint64_t>(v), 8); }
  template <WireInt T>
  void i64(T v) {
    put(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)), 8);
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void time(sim::Time t) { i64(t.us()); }
  void node(net::NodeId n) { u32(n.value()); }
  /// An element count or byte length (u64); the reader bounds it.
  void count(std::size_t n) { u64(n); }
  /// count + bytes.
  void str(std::string_view s) {
    count(s.size());
    raw(s.data(), s.size());
  }
  /// count + bytes.
  void blob(const std::vector<std::uint8_t>& b) {
    count(b.size());
    raw(b.data(), b.size());
  }
  /// Bytes with no length prefix.
  void raw(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + size);
  }

  /// count, then `elem(e)` for each element in order.
  template <typename Seq, typename Elem>
  void list(const Seq& seq, Elem&& elem) {
    count(seq.size());
    for (const auto& e : seq) elem(e);
  }
  /// A presence flag, then `elem(*value)` when present.
  template <typename T, typename Elem>
  void optional(const std::optional<T>& value, Elem&& elem) {
    boolean(value.has_value());
    if (value) elem(*value);
  }

  /// Opens a frame, `[u8 kind][u32 payload size][payload]`: writes the
  /// kind and reserves the size. Frames do not nest.
  template <WireInt Kind>
  void begin_frame(Kind kind) {
    if (frame_size_at_ != kNoFrame)
      throw std::logic_error{"binary frame already open"};
    u8(kind);
    frame_size_at_ = buf_.size();
    u32(0u);  // patched by end_frame
  }
  /// Closes the open frame, patching its size.
  void end_frame() {
    if (frame_size_at_ == kNoFrame) throw std::logic_error{"no frame open"};
    const auto size = buf_.size() - frame_size_at_ - 4;
    for (std::size_t i = 0; i < 4; ++i)
      buf_[frame_size_at_ + i] = static_cast<std::uint8_t>(size >> (8 * i));
    frame_size_at_ = kNoFrame;
  }

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  static constexpr std::size_t kNoFrame = SIZE_MAX;

  void put(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  std::vector<std::uint8_t> buf_;
  std::size_t frame_size_at_ = kNoFrame;
};

/// Bounds-checked reader over bytes held in (possibly mmapped) memory; the
/// mirror of BinaryWriter. Every overrun throws `Error` (the format's own
/// exception type) instead of reading past the end, and a count larger
/// than the remaining bytes is rejected before anything is allocated for
/// it. Each primitive has a returning form and a filling form; transfer
/// functions use the filling one.
template <typename Error>
class BinaryReader {
 public:
  BinaryReader(const std::uint8_t* data, std::size_t size)
      : data_{data}, size_{size} {}
  explicit BinaryReader(const std::vector<std::uint8_t>& data)
      : BinaryReader{data.data(), data.size()} {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(get(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(get(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get(4)); }
  std::uint64_t u64() { return get(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(get(8)); }
  double f64() { return std::bit_cast<double>(get(8)); }
  bool boolean() { return u8() != 0; }
  sim::Time time() { return sim::Time::from_us(i64()); }
  net::NodeId node() { return net::NodeId{u32()}; }
  std::size_t count() {
    const std::uint64_t n = get(8);
    // Every element is >= 1 byte, so a count beyond the remaining bytes
    // is corrupt: rejecting it here turns bad lengths into clean errors.
    if (n > size_ - pos_) fail("count exceeds the remaining bytes");
    return static_cast<std::size_t>(n);
  }
  std::string str() {
    std::string s;
    str(s);
    return s;
  }
  std::vector<std::uint8_t> blob() {
    std::vector<std::uint8_t> b;
    blob(b);
    return b;
  }

  template <WireInt T>
  void u8(T& v) { v = static_cast<T>(u8()); }
  template <WireInt T>
  void u16(T& v) { v = static_cast<T>(u16()); }
  template <WireInt T>
  void u32(T& v) { v = static_cast<T>(u32()); }
  template <WireInt T>
  void u64(T& v) { v = static_cast<T>(u64()); }
  template <WireInt T>
  void i64(T& v) { v = static_cast<T>(i64()); }
  void f64(double& v) { v = f64(); }
  void boolean(bool& v) { v = boolean(); }
  void time(sim::Time& t) { t = time(); }
  void node(net::NodeId& n) { n = node(); }
  void str(std::string& s) {
    const std::size_t n = count();
    s.assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
  }
  void blob(std::vector<std::uint8_t>& b) {
    const std::size_t n = count();
    b.assign(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
  }

  /// Replaces `seq` with a counted list, filling each new element through
  /// `elem`. Elements are appended as they decode, never reserved from the
  /// count, so a corrupt count costs no more than the bytes behind it.
  template <typename Seq, typename Elem>
  void list(Seq& seq, Elem&& elem) {
    const std::size_t n = count();
    seq.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if constexpr (requires { seq.emplace_back(); }) {
        elem(seq.emplace_back());
      } else {  // sets
        typename Seq::value_type e{};
        elem(e);
        seq.insert(seq.end(), std::move(e));
      }
    }
  }
  template <typename T, typename Elem>
  void optional(std::optional<T>& value, Elem&& elem) {
    value.reset();
    if (boolean()) elem(value.emplace());
  }

  bool at_end() const { return pos_ == size_; }

  /// One frame header; `end` is the absolute position just past the
  /// payload. The caller validates `kind`; a size past the end throws.
  struct FrameHeader {
    std::uint8_t kind = 0;
    std::size_t end = 0;
  };
  FrameHeader begin_frame() {
    FrameHeader frame;
    frame.kind = u8();
    const std::uint32_t size = u32();
    if (size > size_ - pos_) fail("truncated frame");
    frame.end = pos_ + size;
    return frame;
  }
  /// Checks the payload was consumed exactly (decode drift = corruption).
  void end_frame(const FrameHeader& frame) {
    if (pos_ != frame.end) fail("frame payload size mismatch");
  }

 private:
  [[noreturn, gnu::cold, gnu::noinline]] static void fail(const char* what) {
    throw Error{what};
  }

  std::uint64_t get(std::size_t bytes) {
    if (size_ - pos_ < bytes) fail("truncated");
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i)
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += bytes;
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// The first eight bytes of both formats: magic, then version.
struct FormatTag {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
};

template <typename IO, typename Tag>
void transfer_tag(IO& io, Tag& tag) {
  io.u32(tag.magic);
  io.u32(tag.version);
}

/// Load-side check of a tag. A reader accepts exactly its own version:
/// both formats are byte-exact images, so any layout change bumps the
/// version and old files are rejected, never migrated.
template <typename Error>
void expect_tag(const FormatTag& got, const FormatTag& want,
                std::string_view format) {
  std::string what{format};
  if (got.magic != want.magic) throw Error{"bad " + what + " magic"};
  if (got.version != want.version)
    throw Error{"unsupported " + what + " version " +
                std::to_string(got.version) + " (expected " +
                std::to_string(want.version) + ")"};
}

}  // namespace manet::logging
