#include "decide/guarantee.h"

#include "decide/experiment_plans.h"
#include "local/batch_runner.h"
#include "rand/splitmix.h"

namespace lnc::decide {

GuaranteeReport measure_guarantee(const Decider& decider,
                                  const ConfigurationSampler& yes_sampler,
                                  const ConfigurationSampler& no_sampler,
                                  const GuaranteeOptions& options) {
  GuaranteeReport report;
  report.advertised = decider.guarantee();

  EvaluateOptions eval_options;
  eval_options.grant_n = options.grant_n;

  local::BatchRunner runner(options.pool);
  report.accept_on_yes = runner.run(guarantee_side_plan(
      decider.name() + "/accept-on-yes", yes_sampler, decider,
      /*want_accept=*/true, options.trials,
      rand::mix_keys(options.base_seed, 0x59), eval_options));
  report.reject_on_no = runner.run(guarantee_side_plan(
      decider.name() + "/reject-on-no", no_sampler, decider,
      /*want_accept=*/false, options.trials,
      rand::mix_keys(options.base_seed, 0x4E), eval_options));
  return report;
}

}  // namespace lnc::decide
