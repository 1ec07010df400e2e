// Number formatting for the serve protocol's reply text. Replies run to
// ~16 k lines at Pod scale, so each number is appended to one reply string
// with std::to_chars instead of going through a per-number ostringstream.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>

namespace hpn::serve {

/// Append `v` with 17 significant digits. std::to_chars(general, 17) is
/// specified to print what printf("%.17g") prints, which is what
/// `ostream << setprecision(17)` prints: two doubles render identically iff
/// they are the same bits (NaN aside), which is what makes "byte-identical
/// replies" equivalent to "bit-identical answers".
inline void append_g(std::string& out, double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

/// Append `v` in decimal.
inline void append_u(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

/// Append `v` as 16 zero-padded lowercase hex digits.
inline void append_hex16(std::string& out, std::uint64_t v) {
  char buf[16];
  for (int i = 15; i >= 0; --i, v >>= 4) buf[i] = "0123456789abcdef"[v & 0xf];
  out.append(buf, sizeof buf);
}

}  // namespace hpn::serve
