#include "decide/evaluate.h"

#include <algorithm>
#include <optional>

#include "fault/fault.h"
#include "graph/metrics.h"
#include "util/assert.h"

namespace lnc::decide {
namespace {

template <typename VerdictAt>
DecisionOutcome evaluate_impl(const local::Instance& inst,
                              const EvaluateOptions& options, int radius,
                              VerdictAt&& verdict_at) {
  inst.validate();
  const graph::NodeId n = inst.node_count();

  std::vector<char> counted(n, 1);
  if (options.far_from.has_value()) {
    const std::vector<int> dist =
        graph::bfs_distances(inst.g, options.far_from->node);
    for (graph::NodeId v = 0; v < n; ++v) {
      counted[v] =
          (dist[v] >= 0 && dist[v] <= options.far_from->exclusion_radius)
              ? 0
              : 1;
    }
  }

  // Fault censoring: crashed nodes cast no verdict, and surviving nodes
  // observe only the realized fault subgraph. Telemetry for the realized
  // faults is NOT charged here — the construction side owns that tally.
  std::optional<fault::BallCensor> censor;
  if (options.fault != nullptr && !options.fault->trivial()) {
    LNC_EXPECTS(options.fault_coins != nullptr &&
                "non-trivial fault model requires its coin stream");
    censor.emplace(*options.fault, *options.fault_coins,
                   [&inst](graph::NodeId v) { return inst.identity_of(v); });
    for (graph::NodeId v = 0; v < n; ++v) {
      if (counted[v] != 0 && censor->node_blocked(v)) counted[v] = 0;
    }
  }
  const graph::BallFilter* filter =
      censor.has_value() ? &*censor : nullptr;

  DecisionOutcome outcome;
  const bool count_telemetry = options.telemetry != nullptr;
  std::uint64_t announcements = 0;
  std::uint64_t encoded_words = 0;
  std::uint64_t expansions = 0;
  local::BallWorkspace local_workspace;
  local::BallWorkspace& workspace =
      options.ball != nullptr ? *options.ball : local_workspace;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (counted[v] == 0) continue;
    workspace.ball.collect(inst.topology(), v, radius, workspace.scratch,
                           filter);
    const graph::BallView& ball = workspace.ball;
    local::View view;
    view.ball = &ball;
    view.instance = &inst;
    if (options.grant_n) view.n_nodes = n;
    if (!verdict_at(view)) {
      outcome.accepted = false;
      outcome.rejecting.push_back(v);
    }
    if (count_telemetry) {
      announcements += ball.size();
      encoded_words += ball.encoded_words();
      ++expansions;
    }
  }
  if (count_telemetry) {
    local::Telemetry& telemetry = *options.telemetry;
    telemetry.messages_sent += announcements;
    telemetry.words_sent += encoded_words;
    telemetry.rounds_executed +=
        static_cast<std::uint64_t>(std::max(radius, 1));
    telemetry.ball_expansions += expansions;
  }
  return outcome;
}

}  // namespace

DecisionOutcome evaluate(const local::Instance& inst,
                         std::span<const local::Label> output,
                         const Decider& decider,
                         const EvaluateOptions& options) {
  return evaluate_impl(inst, options, decider.radius(),
                       [&](const local::View& view) {
                         DeciderView dv{view, output, {}};
                         return decider.accept(dv);
                       });
}

DecisionOutcome evaluate(const local::Instance& inst,
                         std::span<const local::Label> output,
                         const RandomizedDecider& decider,
                         const rand::CoinProvider& coins,
                         const EvaluateOptions& options) {
  return evaluate_impl(inst, options, decider.radius(),
                       [&](const local::View& view) {
                         DeciderView dv{view, output, {}};
                         return decider.accept(dv, coins);
                       });
}

}  // namespace lnc::decide
