#include "decide/evaluate.h"

#include <algorithm>
#include <atomic>
#include <mutex>
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

  std::vector<char> rejected(n, 0);
  const bool count_telemetry = options.telemetry != nullptr;
  // Relaxed atomics: commutative sums, bit-identical whatever the node
  // schedule (see local/runner.cpp).
  std::atomic<std::uint64_t> announcements{0};
  std::atomic<std::uint64_t> encoded_words{0};
  std::atomic<std::uint64_t> expansions{0};
  auto body = [&](local::BallWorkspace& workspace, std::uint64_t v) {
    if (counted[v] == 0) return;
    workspace.ball.collect(inst.topology(), static_cast<graph::NodeId>(v),
                           radius, workspace.scratch, filter);
    const graph::BallView& ball = workspace.ball;
    local::View view;
    view.ball = &ball;
    view.instance = &inst;
    if (options.grant_n) view.n_nodes = n;
    if (!verdict_at(view)) rejected[v] = 1;
    if (count_telemetry) {
      announcements.fetch_add(ball.size(), std::memory_order_relaxed);
      encoded_words.fetch_add(ball.encoded_words(),
                              std::memory_order_relaxed);
      expansions.fetch_add(1, std::memory_order_relaxed);
    }
  };
  if (options.pool != nullptr) {
    std::vector<local::BallWorkspace> workspaces(
        options.pool->thread_count());
    options.pool->parallel_for_workers(
        n, [&](unsigned worker, std::uint64_t v) {
          body(workspaces[worker], v);
        });
  } else {
    local::BallWorkspace local_workspace;
    local::BallWorkspace& workspace =
        options.ball != nullptr ? *options.ball : local_workspace;
    for (graph::NodeId v = 0; v < n; ++v) body(workspace, v);
  }
  if (count_telemetry) {
    local::Telemetry& telemetry = *options.telemetry;
    telemetry.messages_sent +=
        announcements.load(std::memory_order_relaxed);
    telemetry.words_sent += encoded_words.load(std::memory_order_relaxed);
    telemetry.rounds_executed +=
        static_cast<std::uint64_t>(std::max(radius, 1));
    telemetry.ball_expansions += expansions.load(std::memory_order_relaxed);
  }

  DecisionOutcome outcome;
  for (graph::NodeId v = 0; v < n; ++v) {
    if (rejected[v] != 0) {
      outcome.accepted = false;
      outcome.rejecting.push_back(v);
    }
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
