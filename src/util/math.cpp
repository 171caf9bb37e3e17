#include "util/math.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace lnc::util {

double golden_ratio_guarantee() noexcept { return (std::sqrt(5.0) - 1.0) / 2.0; }

double amos_guarantee(double p) noexcept {
  return std::min(p, 1.0 - p * p);
}

Interval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                         double z) noexcept {
  if (trials == 0) return {0.0, 1.0};
  const double n = static_cast<double>(trials);
  const double phat = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (phat + z2 / (2.0 * n)) / denom;
  const double margin =
      (z / denom) * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n));
  return {std::max(0.0, center - margin), std::min(1.0, center + margin)};
}

std::uint64_t saturating_pow(std::uint64_t base, std::uint64_t exp) noexcept {
  std::uint64_t result = 1;
  for (std::uint64_t i = 0; i < exp; ++i) {
    if (base != 0 &&
        result > std::numeric_limits<std::uint64_t>::max() / base) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    result *= base;
  }
  return result;
}

}  // namespace lnc::util
