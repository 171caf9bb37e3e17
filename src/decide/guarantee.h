// Empirical verification that a randomized decider meets Eq. (1): sample
// yes/no configurations, run the decider with fresh decision coins, and
// check  Pr[all accept | yes] and Pr[some reject | no]  against the
// advertised guarantee. The instruments behind experiments E1 and E4.
#pragma once

#include <functional>
#include <memory>

#include "decide/evaluate.h"
#include "local/batch_runner.h"
#include "stats/montecarlo.h"

namespace lnc::decide {

/// A sampled input-output configuration, drawn per trial by a
/// ConfigurationSampler. Samplers whose topology is fixed across trials
/// set `shared_instance` to an interned instance (scenario/registry.h)
/// and only build `output`; consumers read the instance through inst().
struct SampledConfiguration {
  local::Instance instance;  ///< owned storage (used when shared_instance
                             ///< is null)
  local::Labeling output;
  std::shared_ptr<const local::Instance> shared_instance;

  const local::Instance& inst() const noexcept {
    return shared_instance != nullptr ? *shared_instance : instance;
  }
};

/// A configuration sampler: produces (instance, output) pairs; `seed`
/// controls any randomness in the sample. The sampler owns the storage via
/// the returned struct.
using ConfigurationSampler =
    std::function<SampledConfiguration(std::uint64_t seed)>;

struct GuaranteeReport {
  stats::Estimate accept_on_yes;  ///< Pr[all accept] over yes samples
  stats::Estimate reject_on_no;   ///< Pr[some rejects] over no samples
  double advertised = 0.0;        ///< decider.guarantee()

  /// Both empirical bounds' CI lower ends clear 1/2 (the BPLD bar).
  bool meets_bpld_bar() const noexcept {
    return accept_on_yes.ci.lo > 0.5 && reject_on_no.ci.lo > 0.5;
  }
};

struct GuaranteeOptions {
  std::uint64_t trials = 2000;
  std::uint64_t base_seed = 1;
  bool grant_n = false;
  const stats::ThreadPool* pool = nullptr;
};

/// Estimates both sides of Eq. (1). Each trial draws one configuration
/// from the corresponding sampler and one decision-coin seed.
GuaranteeReport measure_guarantee(const Decider& decider,
                                  const ConfigurationSampler& yes_sampler,
                                  const ConfigurationSampler& no_sampler,
                                  const GuaranteeOptions& options = {});

}  // namespace lnc::decide
