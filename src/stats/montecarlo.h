// Monte-Carlo probability estimation: the seed-derivation kernel.
//
// Every probabilistic quantity in the paper — the construction algorithm's
// success probability r, the decider's guarantee p, the failure bound beta
// of Claim 2, the boosted acceptance (1 - beta p)^nu of Claim 3 — is
// estimated by running a {0,1}-valued trial under deterministic per-trial
// seeds and reporting the proportion with a Wilson interval.
//
// This header is the low-layer kernel: trial_seed derivation and the
// estimator epilogues. The trial loop itself is local::BatchRunner
// (local/batch_runner.h): experiment code declares a local::ExperimentPlan
// and runs it there, with per-worker arenas and the unified
// messages/balls/two-phase execution modes on top of this seeding
// contract, so estimates are bit-for-bit reproducible across thread
// counts.
#pragma once

#include <cstdint>
#include <span>

#include "stats/exact_sum.h"
#include "util/math.h"

namespace lnc::stats {

struct Estimate {
  double p_hat = 0.0;          ///< successes / trials
  util::Interval ci;           ///< Wilson 95% interval
  std::uint64_t trials = 0;
  std::uint64_t successes = 0;
};

/// Mean of a real-valued trial statistic.
struct MeanEstimate {
  double mean = 0.0;
  double stddev = 0.0;
  std::uint64_t trials = 0;
};

/// The estimator epilogues, so the statistical formulas live in exactly
/// one place (Wilson interval; sample stddev with n-1). finalize_mean is
/// the two-pass reference that finalize_mean_exact is tested against.
Estimate finalize_estimate(std::uint64_t successes,
                           std::uint64_t trials) noexcept;
MeanEstimate finalize_mean(std::span<const double> values) noexcept;

/// Mean/stddev from exact sum and sum-of-squares accumulators (the
/// shard-mergeable form local::BatchRunner produces): both sums are
/// order-free and exact, so the resulting estimate is bit-identical
/// across thread counts and shard partitions. Stddev uses the sample
/// formula sqrt((sum_sq - mean * sum) / (n - 1)), clamped at zero.
MeanEstimate finalize_mean_exact(const ExactSum& sum,
                                 const ExactSum& sum_sq,
                                 std::uint64_t trials) noexcept;

/// Derives the seed used for trial `index` under `base_seed` — exposed so
/// tests can re-run an individual failing trial.
std::uint64_t trial_seed(std::uint64_t base_seed, std::uint64_t index);

}  // namespace lnc::stats
