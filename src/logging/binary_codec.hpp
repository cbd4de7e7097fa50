#pragma once

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
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

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "fields are stored by one byte swap or none");

/// `v` with its bytes in `Order`, from the host's order or back (the swap
/// is its own inverse): one byte swap, or none when the orders agree.
template <std::endian Order, std::unsigned_integral U>
constexpr U in_order(U v) {
  if constexpr (Order == std::endian::native || sizeof v == 1) {
    return v;
  } else if constexpr (sizeof v == 2) {
    return __builtin_bswap16(v);
  } else if constexpr (sizeof v == 4) {
    return __builtin_bswap32(v);
  } else {
    static_assert(sizeof v == 8);
    return __builtin_bswap64(v);
  }
}

/// The writer behind every byte format: the audit log
/// (logging/audit_log.hpp) and the checkpoint (faults/checkpoint.hpp) are
/// little-endian; the OLSR wire (olsr/wire.hpp) and the investigation and
/// recommendation payloads its DATA messages carry are big-endian, RFC
/// 3626's network byte order. Each format fixes `Order` at compile time.
///
/// Each layout is one *transfer function*, a template over the direction:
/// `transfer_x(IO& io, X& x)` calls one primitive per field. BinaryWriter's
/// primitives take values and append them; BinaryReader's take references
/// and fill them. So the same body saves (IO = BinaryWriter, X const) and
/// loads (IO = BinaryReader), and a field is added, removed or reordered
/// in one place. Load-side validation runs after the transfer.
template <std::endian Order = std::endian::little>
class BinaryWriter {
 public:
  BinaryWriter() = default;
  /// A writer that knows its final size up front appends without regrowing.
  explicit BinaryWriter(std::size_t capacity) { buf_.reserve(capacity); }

  template <WireInt T>
  void u8(T v) { put(static_cast<std::uint8_t>(v)); }
  template <WireInt T>
  void u16(T v) { put(static_cast<std::uint16_t>(v)); }
  template <WireInt T>
  void u32(T v) { put(static_cast<std::uint32_t>(v)); }
  template <WireInt T>
  void u64(T v) { put(static_cast<std::uint64_t>(v)); }
  template <WireInt T>
  void i64(T v) {
    put(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
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
  /// Node ids with no count, a u32 each: the bytes of `node` per id, in
  /// one copy when `Order` is the host's.
  void nodes(std::span<const net::NodeId> ids) {
    static_assert(sizeof(net::NodeId) == 4 &&
                  std::is_trivially_copyable_v<net::NodeId>);
    if constexpr (Order == std::endian::native) {
      raw(ids.data(), ids.size_bytes());
    } else {
      for (const net::NodeId id : ids) node(id);
    }
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
    const auto size = in_order<Order>(
        static_cast<std::uint32_t>(buf_.size() - frame_size_at_ - 4));
    std::memcpy(buf_.data() + frame_size_at_, &size, sizeof size);
    frame_size_at_ = kNoFrame;
  }

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  static constexpr std::size_t kNoFrame = SIZE_MAX;

  /// Appends one fixed-width field: one byte swap (or none) and one copy.
  template <typename U>
  void put(U v) {
    v = in_order<Order>(v);
    const auto at = buf_.size();
    buf_.resize(at + sizeof v);
    std::memcpy(buf_.data() + at, &v, sizeof v);
  }

  std::vector<std::uint8_t> buf_;
  std::size_t frame_size_at_ = kNoFrame;
};

/// Bounds-checked reader over bytes held in (possibly mmapped) memory; the
/// mirror of BinaryWriter, in the same `Order`. Every overrun throws
/// `Error` (the format's own exception type) instead of reading past the
/// end, and a count larger than the remaining bytes is rejected before
/// anything is allocated for it. Each primitive has a returning form and a
/// filling form; transfer functions use the filling one.
template <typename Error, std::endian Order = std::endian::little>
class BinaryReader {
 public:
  BinaryReader(const std::uint8_t* data, std::size_t size)
      : data_{data}, size_{size} {}
  explicit BinaryReader(std::span<const std::uint8_t> bytes)
      : BinaryReader{bytes.data(), bytes.size()} {}

  std::uint8_t u8() { return load<std::uint8_t>(); }
  std::uint16_t u16() { return load<std::uint16_t>(); }
  std::uint32_t u32() { return load<std::uint32_t>(); }
  std::uint64_t u64() { return load<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }
  sim::Time time() { return sim::Time::from_us(i64()); }
  net::NodeId node() { return net::NodeId{u32()}; }
  /// A count of elements that take at least `width` bytes each (1 unless
  /// the caller knows better), so a count the remaining bytes cannot hold
  /// is corrupt: rejecting it here turns bad lengths into clean errors.
  std::size_t count(std::size_t width = 1) {
    const std::uint64_t n = u64();
    if (n > remaining() / width) fail("count exceeds the remaining bytes");
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
  /// The next `n` bytes, with no length prefix: the mirror of the
  /// writer's `raw`.
  std::span<const std::uint8_t> raw(std::size_t n) {
    if (n > remaining()) fail("truncated");
    const std::span<const std::uint8_t> bytes{data_ + pos_, n};
    pos_ += n;
    return bytes;
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
    const auto bytes = raw(count());
    s.assign(bytes.begin(), bytes.end());
  }
  void blob(std::vector<std::uint8_t>& b) {
    const auto bytes = raw(count());
    b.assign(bytes.begin(), bytes.end());
  }
  /// Fills `out` with node ids (no count), a u32 each: one bounds check
  /// for the whole run, then one copy in the host's order, or a byte swap
  /// and a copy per id.
  void nodes(std::span<net::NodeId> out) {
    static_assert(sizeof(net::NodeId) == 4 &&
                  std::is_trivially_copyable_v<net::NodeId>);
    if (out.size() > remaining() / 4) fail("truncated");
    const auto* in = data_ + pos_;
    pos_ += out.size_bytes();
    if constexpr (Order == std::endian::native) {
      std::memcpy(out.data(), in, out.size_bytes());
    } else {
      for (auto& id : out) {
        std::uint32_t v;
        std::memcpy(&v, in, sizeof v);
        id = net::NodeId{in_order<Order>(v)};
        in += sizeof v;
      }
    }
  }
  /// Appends `n` node ids (no count) to `out`, bounded by the remaining
  /// bytes before `out` grows.
  void nodes(std::vector<net::NodeId>& out, std::size_t n) {
    if (n > remaining() / 4) fail("truncated");
    const auto have = out.size();
    out.resize(have + n);
    nodes(std::span{out}.subspan(have));
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
  std::size_t remaining() const { return size_ - pos_; }

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
    if (size > remaining()) fail("truncated frame");
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

  /// One fixed-width field: one bounds check, one copy and one byte swap
  /// (or none).
  template <typename U>
  U load() {
    if (remaining() < sizeof(U)) fail("truncated");
    U v;
    std::memcpy(&v, data_ + pos_, sizeof v);
    pos_ += sizeof v;
    return in_order<Order>(v);
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
