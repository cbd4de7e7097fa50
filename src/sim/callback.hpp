#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace manet::sim {

/// Move-only `void()` callable with small-buffer optimization. The simulator
/// hot path schedules millions of short-lived lambdas (frame deliveries,
/// timer ticks); storing their captures inline in the event-queue entries
/// avoids one heap allocation per event, which std::function cannot
/// guarantee. Captures larger than kInlineSize (or not nothrow-movable) fall
/// back to the heap transparently. Trivially copyable targets (and the
/// pointer of a heap-stored one) move by memcpy, with no indirect call.
class Callback {
 public:
  /// Sized for the hot-path lambdas, which capture a few words: a frame
  /// arrival is (this, flight slot), a timer tick (this), a jittered
  /// forward (this, slot). An event-queue entry (time, sequence, callback)
  /// then fills one 64-byte line.
  static constexpr std::size_t kInlineSize = 40;

  Callback() noexcept = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Callback> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  Callback(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                     // std::function at every schedule() call site.
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = inline_ops<Fn>();
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = heap_ops<Fn>();
    }
  }

  Callback(Callback&& other) noexcept { take(other); }
  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Throws std::bad_function_call when empty, like std::function did.
  void operator()() {
    if (ops_ == nullptr) throw std::bad_function_call{};
    ops_->invoke(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs into `to` and destroys `from`; null when a memcpy
    /// of the buffer does both (trivially copyable and heap-stored
    /// targets).
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static const Ops* inline_ops() noexcept {
    static constexpr Ops ops{
        [](void* p) { (*static_cast<Fn*>(p))(); },
        std::is_trivially_copyable_v<Fn>
            ? nullptr
            : +[](void* from, void* to) noexcept {
                Fn* f = static_cast<Fn*>(from);
                ::new (to) Fn(std::move(*f));
                f->~Fn();
              },
        [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
    };
    return &ops;
  }

  template <typename Fn>
  static const Ops* heap_ops() noexcept {
    static constexpr Ops ops{
        [](void* p) { (**static_cast<Fn**>(p))(); },
        nullptr,
        [](void* p) noexcept { delete *static_cast<Fn**>(p); },
    };
    return &ops;
  }

  void take(Callback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr)
        ops_->relocate(other.buf_, buf_);
      else
        std::memcpy(buf_, other.buf_, kInlineSize);
      other.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace manet::sim
