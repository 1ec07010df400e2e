// Test-only oracle: the serve reply formatters as they were before replies
// moved to std::to_chars (src/serve/format.h), kept verbatim so the
// formatter differential test can pin the new path byte for byte.
#pragma once

#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>

namespace hpn::serve::testing {

inline std::string reference_fmt_g(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

inline std::string reference_hex16(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

}  // namespace hpn::serve::testing
