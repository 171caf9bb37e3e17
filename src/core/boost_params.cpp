#include "core/boost_params.h"

#include <cmath>
#include <limits>

#include "util/assert.h"
#include "util/math.h"

namespace lnc::core {

bool BoostParameters::valid() const noexcept {
  return p > 0.5 && p <= 1.0 && r > 0.0 && r <= 1.0 && beta > 0.0 &&
         beta <= 1.0 && t >= 0 && t_prime >= 0;
}

std::uint64_t BoostParameters::nu() const {
  LNC_EXPECTS(valid());
  // Eq. (3): nu = 1 + ceil( ln(r p) / ln(1 - beta p) ). Both logs are
  // negative, so the ratio is positive.
  const double numerator = std::log(r * p);
  const double denominator = std::log(1.0 - beta * p);
  return 1 + static_cast<std::uint64_t>(
                 std::ceil(numerator / denominator));
}

std::uint64_t BoostParameters::mu() const {
  LNC_EXPECTS(p > 0.5);
  return static_cast<std::uint64_t>(std::ceil(1.0 / (2.0 * p - 1.0)));
}

std::uint64_t BoostParameters::min_diameter() const {
  return 2 * mu() * static_cast<std::uint64_t>(t + t_prime);
}

std::uint64_t BoostParameters::nu_prime() const {
  LNC_EXPECTS(valid());
  // (1/p) * (1 - beta(1-p)/mu)^{nu'} < r  <=>
  // nu' > ln(r p) / ln(1 - beta(1-p)/mu).
  const double shrink =
      1.0 - beta * (1.0 - p) / static_cast<double>(mu());
  LNC_ASSERT(shrink > 0.0 && shrink < 1.0);
  const double numerator = std::log(r * p);
  const double denominator = std::log(shrink);
  return 1 + static_cast<std::uint64_t>(
                 std::ceil(numerator / denominator));
}

double BoostParameters::disjoint_acceptance_bound(
    std::uint64_t instances) const {
  return std::pow(1.0 - beta * p, static_cast<double>(instances));
}

double BoostParameters::glued_acceptance_bound(
    std::uint64_t instances) const {
  const double shrink =
      1.0 - beta * (1.0 - p) / static_cast<double>(mu());
  return std::pow(shrink, static_cast<double>(instances)) / p;
}

std::uint64_t order_invariant_algorithm_count_ring(int t, int palette) {
  LNC_EXPECTS(t >= 0 && palette >= 1);
  std::uint64_t patterns = 1;  // (2t+1)!
  for (int i = 2; i <= 2 * t + 1; ++i) {
    patterns *= static_cast<std::uint64_t>(i);
  }
  return util::saturating_pow(static_cast<std::uint64_t>(palette), patterns);
}

bool mu_pigeonhole_holds(double p) {
  if (p <= 0.5) return false;
  const double mu = std::ceil(1.0 / (2.0 * p - 1.0));
  return mu * (2.0 * p - 1.0) > 1.0;
}

namespace {

/// a * b with saturation.
std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  if (a != 0 && b > std::numeric_limits<std::uint64_t>::max() / a) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return a * b;
}

/// a + b with saturation.
std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  if (a > std::numeric_limits<std::uint64_t>::max() - b) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return a + b;
}

/// Multisets of size d over an alphabet of size L: C(L + d - 1, d),
/// saturating.
std::uint64_t multiset_count(std::uint64_t alphabet, std::uint64_t d) {
  // Product formula with interleaved division keeps intermediates exact.
  // The numerator saturates too: a saturated alphabet must not wrap it
  // to zero.
  std::uint64_t result = 1;
  for (std::uint64_t i = 1; i <= d; ++i) {
    const std::uint64_t numerator = sat_add(alphabet, i - 1);
    if (result > std::numeric_limits<std::uint64_t>::max() / numerator) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    result = result * numerator / i;
  }
  return result;
}

std::uint64_t factorial_sat(std::uint64_t n) {
  std::uint64_t f = 1;
  for (std::uint64_t i = 2; i <= n; ++i) f = sat_mul(f, i);
  return f;
}

}  // namespace

std::uint64_t label_value_count(int k) {
  LNC_EXPECTS(k >= 0);
  if (k >= 63) return std::numeric_limits<std::uint64_t>::max();
  return (std::uint64_t{1} << (k + 1)) - 1;
}

std::uint64_t radius1_ball_shape_count(int k) {
  LNC_EXPECTS(k >= 0);
  return static_cast<std::uint64_t>(k) + 1;
}

std::uint64_t labeled_radius1_ball_count(int k) {
  // Center (input, output) pair times the multiset of leaf pairs, summed
  // over degrees d = 0..k.
  const std::uint64_t pair_count =
      sat_mul(label_value_count(k), label_value_count(k));
  std::uint64_t total = 0;
  for (int d = 0; d <= k; ++d) {
    total = sat_add(total, sat_mul(pair_count,
                                   multiset_count(pair_count,
                                                  static_cast<std::uint64_t>(d))));
  }
  return total;
}

std::uint64_t ordered_labeled_radius1_ball_count(int k) {
  const std::uint64_t pair_count =
      sat_mul(label_value_count(k), label_value_count(k));
  std::uint64_t total = 0;
  for (int d = 0; d <= k; ++d) {
    const std::uint64_t labeled = sat_mul(
        pair_count,
        multiset_count(pair_count, static_cast<std::uint64_t>(d)));
    total = sat_add(total,
                    sat_mul(labeled, factorial_sat(
                                         static_cast<std::uint64_t>(d) + 1)));
  }
  return total;
}

}  // namespace lnc::core
