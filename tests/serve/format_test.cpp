// Reply-number differential: the std::to_chars formatters the daemon
// replies with (serve/format.h) against the ostringstream formatters they
// replaced (tests/support/reference_format.h), on random bit patterns and
// the edge cases printf's %g treats specially.
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "serve/format.h"
#include "tests/support/reference_format.h"

namespace hpn::serve {
namespace {

std::string to_chars_g(double v) {
  std::string out;
  append_g(out, v);
  return out;
}

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

TEST(ServeFormat, DoublesMatchTheStreamFormatterOnRandomBitPatterns) {
  // Every bit pattern is a double: NaNs with payloads, subnormals, and
  // every exponent appear in proportion to their share of the encoding.
  std::mt19937_64 rng{20261019};
  int mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t bits = rng();
    const double v = from_bits(bits);
    const std::string want = testing::reference_fmt_g(v);
    const std::string got = to_chars_g(v);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << "bits 0x" << testing::reference_hex16(bits) << ": to_chars '" << got
                    << "' vs stream '" << want << "'";
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(ServeFormat, DoublesMatchTheStreamFormatterOnEdgeCases) {
  std::vector<double> cases = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN,
      std::nextafter(DBL_MIN, 0.0),  // largest subnormal
      DBL_MAX,
      -DBL_MAX,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::epsilon(),
      0.1,
      1.0 / 3.0,
      40.0,
      47.058823529411768,
      1e-5,
      1e-4,  // %g switches to exponent notation below 1e-4
      1e16,
      1e17,  // and at exponents >= the precision (17)
      123456789012345678.0,
  };
  // Integers around 1e16-1e17, where doubles stop being dense in the
  // integers and 17 significant digits start to round.
  for (double base : {1e16, 1e17, 9007199254740992.0 /* 2^53 */}) {
    double v = base;
    for (int i = 0; i < 64; ++i, v = std::nextafter(v, DBL_MAX)) cases.push_back(v);
    v = base;
    for (int i = 0; i < 64; ++i, v = std::nextafter(v, 0.0)) cases.push_back(v);
  }
  for (const double v : cases) {
    EXPECT_EQ(to_chars_g(v), testing::reference_fmt_g(v)) << "value " << v;
  }
}

TEST(ServeFormat, IntegersMatchTheStreamFormatter) {
  std::mt19937_64 rng{4242};
  std::vector<std::uint64_t> cases = {0, 1, 9, 10, 0xf, 0x10,
                                      std::numeric_limits<std::uint64_t>::max()};
  for (int i = 0; i < 10'000; ++i) cases.push_back(rng() >> (i % 64));
  for (const std::uint64_t v : cases) {
    std::string hex;
    append_hex16(hex, v);
    EXPECT_EQ(hex, testing::reference_hex16(v));
    std::string dec;
    append_u(dec, v);
    EXPECT_EQ(dec, std::to_string(v));
  }
}

}  // namespace
}  // namespace hpn::serve
