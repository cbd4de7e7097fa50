#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/node_id.hpp"
#include "sim/time.hpp"

namespace manet::net {

using Bytes = std::vector<std::uint8_t>;

/// Immutable payload shared by every receiver of one transmission. A
/// broadcast serializes its bytes once; each delivery holds a reference
/// instead of a deep copy (zero-copy broadcast).
///
/// The refcount is intrusive and deliberately NOT atomic: a simulation and
/// every frame it delivers are confined to a single thread (the parallel
/// Runner gives each replication its own simulator stack and extracts only
/// plain-value results), and one Packet copy per receiver per frame is the
/// hottest allocation-adjacent path in the system — two lock-prefixed ops
/// per delivery are measurable at N=1024. Do not hand payloads to another
/// thread; share the serialized Bytes instead.
///
/// Next to the bytes sits one lazily filled, type-erased decode slot (see
/// decoded()), so all receivers of a frame share one decode of it. It
/// follows the refcount's rule: only the owning thread fills or reads it.
class PayloadPtr {
 public:
  PayloadPtr() noexcept = default;
  explicit PayloadPtr(Bytes bytes) : rep_{new Rep{std::move(bytes), 1}} {}

  PayloadPtr(const PayloadPtr& other) noexcept : rep_{other.rep_} {
    if (rep_ != nullptr) ++rep_->refs;
  }
  PayloadPtr(PayloadPtr&& other) noexcept
      : rep_{std::exchange(other.rep_, nullptr)} {}
  PayloadPtr& operator=(PayloadPtr other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~PayloadPtr() { release(); }

  const Bytes& operator*() const noexcept { return rep_->bytes; }
  const Bytes* operator->() const noexcept { return &rep_->bytes; }
  explicit operator bool() const noexcept { return rep_ != nullptr; }

  /// The payload's bytes decoded once: the first call, through any copy of
  /// this pointer, stores `decode(bytes)` in the slot, and every later call
  /// returns that object. The bytes never change, so neither does the
  /// decode. One slot per payload: every caller must ask for the same T.
  template <typename T, typename Decode>
  const T& decoded(Decode&& decode) const {
    if (rep_->decoded == nullptr) {
      rep_->decoded = new T(std::forward<Decode>(decode)(rep_->bytes));
      rep_->destroy = &destroy<T>;
    } else if (rep_->destroy != &destroy<T>) {
      throw std::logic_error{"payload decoded as two types"};
    }
    return *static_cast<const T*>(rep_->decoded);
  }

 private:
  struct Rep {
    Bytes bytes;
    std::uint32_t refs;
    const void* decoded = nullptr;
    void (*destroy)(const void*) = nullptr;
  };
  template <typename T>
  static void destroy(const void* p) {
    delete static_cast<const T*>(p);
  }
  void release() noexcept {
    if (rep_ == nullptr || --rep_->refs != 0) return;
    if (rep_->decoded != nullptr) rep_->destroy(rep_->decoded);
    delete rep_;
  }
  Rep* rep_ = nullptr;
};

/// Serializes-once helper mirroring the old std::make_shared call sites.
inline PayloadPtr make_payload(Bytes bytes) {
  return PayloadPtr{std::move(bytes)};
}

/// A frame as seen by a receiver: who transmitted it on the air (the
/// link-layer sender, not the originator of the routed message) and the
/// payload bytes. OLSR parses the payload itself per RFC 3626 wire format.
struct Packet {
  NodeId transmitter;     ///< link-layer sender
  NodeId link_dest;       ///< kInvalidNode for link-layer broadcast
  PayloadPtr data;        ///< shared across all receivers of the frame
  sim::Time sent_at;      ///< transmission start time

  const Bytes& payload() const { return *data; }
};

}  // namespace manet::net
