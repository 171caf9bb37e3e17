#include "stats/montecarlo.h"

#include <algorithm>
#include <cmath>

#include "rand/splitmix.h"

namespace lnc::stats {

std::uint64_t trial_seed(std::uint64_t base_seed, std::uint64_t index) {
  return rand::mix_keys(base_seed, index);
}

Estimate finalize_estimate(std::uint64_t successes,
                           std::uint64_t trials) noexcept {
  Estimate e;
  e.trials = trials;
  e.successes = successes;
  e.p_hat = trials == 0
                ? 0.0
                : static_cast<double>(successes) / static_cast<double>(trials);
  e.ci = util::wilson_interval(successes, trials);
  return e;
}

MeanEstimate finalize_mean(std::span<const double> values) noexcept {
  MeanEstimate m;
  m.trials = values.size();
  if (values.empty()) return m;
  double sum = 0.0;
  for (double v : values) sum += v;
  m.mean = sum / static_cast<double>(values.size());
  double sq = 0.0;
  for (double v : values) sq += (v - m.mean) * (v - m.mean);
  m.stddev = values.size() > 1
                 ? std::sqrt(sq / static_cast<double>(values.size() - 1))
                 : 0.0;
  return m;
}

MeanEstimate finalize_mean_exact(const ExactSum& sum, const ExactSum& sum_sq,
                                 std::uint64_t trials) noexcept {
  MeanEstimate m;
  m.trials = trials;
  if (trials == 0) return m;
  const double total = sum.value();
  const double total_sq = sum_sq.value();
  m.mean = total / static_cast<double>(trials);
  if (trials > 1) {
    // Sum-of-squares variance, chosen because both sums shard-merge
    // exactly (the two-pass formula needs every value). The final
    // subtraction cancels when mean^2 dwarfs the variance — fine for
    // the bounded-magnitude statistics the registry ships (rounds,
    // sizes, per-trial volumes), but callers averaging ~1e9-magnitude
    // values with tiny spread should expect a degraded stddev.
    const double centered = total_sq - m.mean * total;
    m.stddev =
        std::sqrt(std::max(0.0, centered / static_cast<double>(trials - 1)));
  }
  return m;
}

}  // namespace lnc::stats
