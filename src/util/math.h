// Small numeric helpers shared by the deciders, the boosting-parameter
// formulas of Theorem 1, and the Monte-Carlo estimators.
#pragma once

#include <cstdint>
#include <utility>

namespace lnc::util {

/// Golden-ratio decider guarantee from the paper's amos example
/// (section 2.3.1): p* = (sqrt(5)-1)/2, the unique p with p = 1 - p^2.
double golden_ratio_guarantee() noexcept;

/// min(p, 1 - p^2): the guarantee achieved by the amos decider when every
/// selected node accepts with probability p. Maximized at p*.
double amos_guarantee(double p) noexcept;

/// Wilson score interval for a binomial proportion: given `successes` out of
/// `trials`, returns [lo, hi] such that the true probability lies inside
/// with approximately `z`-sigma confidence (z = 1.96 ~ 95%).
struct Interval {
  double lo = 0.0;
  double hi = 1.0;
};
Interval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                         double z = 1.96) noexcept;

/// Integer power with saturation at UINT64_MAX.
std::uint64_t saturating_pow(std::uint64_t base, std::uint64_t exp) noexcept;

/// Ceiling division for non-negative integers.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) noexcept {
  return b == 0 ? 0 : (a + b - 1) / b;
}

}  // namespace lnc::util
