#pragma once

#include <cstdint>
#include <limits>
#include <utility>

namespace manet::sim {

/// Deterministic pseudo-random source (xoshiro256**). Every stochastic
/// component of the simulator draws from an explicitly seeded Rng so that a
/// scenario is fully reproducible from its seed. The hot draws (next_u64,
/// bernoulli, uniform_int) are defined inline: the medium performs one
/// bernoulli + one uniform_int per frame delivery, and keeping them in the
/// header lets the compiler fold them into the delivery loop.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform over the full 64-bit range.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double next_double() {
    // 53 high bits -> double in [0,1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  /// Determinism contract: consumes next_u64 draws via rejection sampling
  /// (no modulo bias); the number of draws and the result depend only on
  /// the stream state and the span, never on caching below. The span and
  /// the offset from lo are computed modulo 2^64, so ranges wider than
  /// INT64_MAX (up to the full int64 range) are defined too.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
    // Rejection sampling to avoid modulo bias. The rejection limit is a
    // pure function of the span; hot callers (frame delivery jitter, timer
    // jitter) reuse one span millions of times, so cache the last limit to
    // skip the 64-bit division. The cached value is identical to the
    // recomputed one, so the draw sequence is unchanged.
    if (span != cached_span_) {
      cached_span_ = span;
      cached_limit_ = std::numeric_limits<std::uint64_t>::max() -
                      std::numeric_limits<std::uint64_t>::max() % span;
    }
    const std::uint64_t limit = cached_limit_;
    std::uint64_t v;
    do {
      v = next_u64();
    } while (v >= limit);
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + v % span);
  }

  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Standard normal via Box-Muller (deterministic across platforms).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Fisher-Yates shuffle of an indexable container.
  template <typename Container>
  void shuffle(Container& c) {
    for (std::size_t i = c.size(); i > 1; --i) {
      auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

  /// Derives an independent child stream (for per-node randomness).
  Rng fork() { return Rng{next_u64()}; }

  /// Serializable stream cursor: the xoshiro256** state words plus the
  /// Box-Muller spare. The uniform_int span/limit memo is deliberately
  /// excluded — it is a pure function of the span that is recomputed on
  /// the first post-restore draw, so dropping it cannot change the draw
  /// sequence (see the uniform_int contract above).
  struct State {
    std::uint64_t s[4] = {0, 0, 0, 0};
    bool has_cached_normal = false;
    double cached_normal = 0.0;
  };

  State state() const {
    return State{{s_[0], s_[1], s_[2], s_[3]}, has_cached_normal_,
                 cached_normal_};
  }

  void set_state(const State& st) {
    for (int i = 0; i < 4; ++i) s_[i] = st.s[i];
    has_cached_normal_ = st.has_cached_normal;
    cached_normal_ = st.cached_normal;
    cached_span_ = 0;
    cached_limit_ = 0;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
  std::uint64_t cached_span_ = 0;   ///< uniform_int limit memo (span 0 = none)
  std::uint64_t cached_limit_ = 0;
};

}  // namespace manet::sim
