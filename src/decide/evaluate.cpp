#include "decide/evaluate.h"

#include "fault/fault.h"
#include "local/batch_runner.h"
#include "local/experiment.h"

namespace lnc::decide {
namespace {

/// Member outputs read from a full labeling, indexed by original node:
/// one lane.
struct LabelingOutputs {
  std::span<const local::Label> output;

  static constexpr std::size_t lanes() noexcept { return 1; }
  const local::Label* own(graph::NodeId v) const { return &output[v]; }
  const local::Label* member(graph::NodeId u) const { return &output[u]; }
};

}  // namespace

EvaluateOptions trial_options(EvaluateOptions options,
                              const local::TrialEnv& env,
                              const rand::PhiloxCoins& fault_coins) {
  options.telemetry = &env.arena->telemetry();
  options.ball = &env.arena->ball_workspace();
  options.fault_coins = &fault_coins;
  options.ball_tables = env.ball_tables;
  return options;
}

DecisionOutcome evaluate(const local::Instance& inst,
                         std::span<const local::Label> output,
                         const Decider& decider,
                         const rand::CoinProvider& coins,
                         const EvaluateOptions& options) {
  const std::optional<fault::BallCensor> censor =
      local::trial_censor(inst, options.fault, options.fault_coins);
  LabelingOutputs outputs{output};
  DecisionOutcome outcome;
  std::uint8_t accepted = 1;
  decide_each_node(
      inst, decider.radius(), options,
      censor.has_value() ? &*censor : nullptr, outputs,
      [&](const DeciderView& view, std::size_t) {
        return decider.accept(view, coins);
      },
      {0, inst.node_count()}, {&accepted, 1}, &outcome.rejecting);
  outcome.accepted = accepted != 0;
  return outcome;
}

}  // namespace lnc::decide
