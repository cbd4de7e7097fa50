#include "net/node_id.hpp"

#include <charconv>
#include <stdexcept>

namespace manet::net {

std::string NodeId::to_string() const {
  if (!valid()) return "n?";
  // Built with += rather than operator+ to dodge GCC 12's -Wrestrict false
  // positive (PR105651) on the char* + string&& overload under -O2.
  std::string out = "n";
  out += std::to_string(value_);
  return out;
}

NodeId NodeId::parse(std::string_view text) {
  std::uint32_t v = 0;
  const auto* end = text.data() + text.size();
  if (text.size() >= 2 && text[0] == 'n') {
    auto [ptr, ec] = std::from_chars(text.data() + 1, end, v);
    if (ec == std::errc{} && ptr == end) return NodeId{v};
  }
  std::string message = "bad NodeId: ";
  message += text;
  throw std::invalid_argument{message};
}

}  // namespace manet::net
