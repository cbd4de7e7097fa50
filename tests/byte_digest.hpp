#pragma once

// FNV-1a 64 over a byte string: the digest the pinned-format tests
// (checkpoint_test, audit_pipeline_test) compare binary outputs with.

#include <cstdint>
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

}  // namespace manet::test_digest
