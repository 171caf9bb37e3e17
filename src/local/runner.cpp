#include "local/runner.h"

#include <algorithm>

#include "util/assert.h"

namespace lnc::local {
namespace {

template <typename ComputeAtNode>
void run_per_node(const Instance& inst, int radius, const RunOptions& options,
                  Labeling& output, ComputeAtNode&& compute) {
  inst.validate();
  const graph::NodeId n = inst.node_count();
  output.assign(n, 0);
  const bool count = options.telemetry != nullptr;
  std::uint64_t announcements = 0;
  std::uint64_t encoded_words = 0;
  std::uint64_t expansions = 0;
  // One workspace for the whole run even without a caller slot — the
  // per-node allocations collapse either way; the caller's slot only adds
  // cross-call (per-trial) reuse.
  BallWorkspace local_workspace;
  BallWorkspace& workspace =
      options.ball != nullptr ? *options.ball : local_workspace;
  const graph::BallTable* table =
      pick_ball_table(options.ball_tables, inst, radius, options.ball_filter);
  for (graph::NodeId v = 0; v < n; ++v) {
    if (options.ball_filter != nullptr &&
        options.ball_filter->node_blocked(v)) {
      continue;  // crashed center: tombstone 0, no collection, no charge
    }
    const graph::BallView& ball = workspace.load(
        inst.topology(), table, v, radius, options.ball_filter);
    View view;
    view.ball = &ball;
    view.instance = &inst;
    output[v] = compute(view);
    if (count) {
      announcements += ball.size();
      encoded_words += ball.encoded_words();
      ++expansions;
    }
  }
  if (count) {
    // The simulation-theorem charge (local/telemetry.h): delivering every
    // inspected view, over max(radius, 1) rounds (wake-up included).
    Telemetry& telemetry = *options.telemetry;
    telemetry.messages_sent += announcements;
    telemetry.words_sent += encoded_words;
    telemetry.rounds_executed +=
        static_cast<std::uint64_t>(std::max(radius, 1));
    telemetry.ball_expansions += expansions;
  }
}

}  // namespace

const graph::BallTable* pick_ball_table(
    std::span<const graph::BallTable> tables, const Instance& inst,
    int radius, const graph::BallFilter* censor) {
  if (censor != nullptr) return nullptr;
  for (const graph::BallTable& table : tables) {
    if (table.radius() != radius) continue;
    LNC_EXPECTS(table.graph() == &inst.g &&
                "a ball table of another instance's graph");
    return &table;
  }
  return nullptr;
}

void run_ball_algorithm_into(const Instance& inst, const BallAlgorithm& algo,
                             Labeling& output, const RunOptions& options) {
  run_per_node(inst, algo.radius(), options, output,
               [&](const View& view) { return algo.compute(view); });
}

void run_ball_algorithm_into(const Instance& inst,
                             const RandomizedBallAlgorithm& algo,
                             const rand::CoinProvider& coins, Labeling& output,
                             const RunOptions& options) {
  run_per_node(inst, algo.radius(), options, output, [&](const View& view) {
    return algo.compute(view, coins);
  });
}

Labeling run_ball_algorithm(const Instance& inst, const BallAlgorithm& algo,
                            const RunOptions& options) {
  Labeling output;
  run_ball_algorithm_into(inst, algo, output, options);
  return output;
}

Labeling run_ball_algorithm(const Instance& inst,
                            const RandomizedBallAlgorithm& algo,
                            const rand::CoinProvider& coins,
                            const RunOptions& options) {
  Labeling output;
  run_ball_algorithm_into(inst, algo, coins, output, options);
  return output;
}

}  // namespace lnc::local
