#pragma once

// FNV-1a 64 over a byte string: the digest the pinned-format tests
// (checkpoint_test, audit_pipeline_test) compare binary outputs with; and
// the lowercase hex the short pinned encodings (the OLSR wire, the
// investigation and recommendation payloads) are committed as.

#include <cstdint>
#include <string>
#include <vector>

namespace manet::test_digest {

inline std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const auto b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0x0F];
  }
  return out;
}

/// The bytes of a hex string written by `hex`.
inline std::vector<std::uint8_t> unhex(const std::string& text) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < text.size(); i += 2)
    out.push_back(static_cast<std::uint8_t>(std::stoul(text.substr(i, 2),
                                                       nullptr, 16)));
  return out;
}

}  // namespace manet::test_digest
