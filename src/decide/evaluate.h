// Running deciders over whole configurations.
//
// Acceptance is the conjunction of per-node verdicts (paper, Eq. 1). The
// optional "far from u" restriction implements the proof device of Claims
// 4 and 5: only verdicts of nodes at distance GREATER than `exclusion
// radius` from a distinguished node u count. ("We say that D accepts
// (G,(x,y)) far from v if D outputs true at all nodes at distance greater
// than t+t' from v.")
//
// Every verdict goes through one per-node loop, decide_each_node below:
// evaluate() runs it over a labeling's nodes, construct_then_decide_plan's
// implicit trials over one node-range part of a batch of trials at a
// time, reading outputs from the worker's construction memo. By section
// 2.1.1, v's verdict depends only on its radius-(t + t') ball, so the
// parts of a trial run on any workers and their verdicts conjoin to the
// trial's acceptance; and the ball does not depend on the coins, so the
// trials of a batch load it once.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "decide/decider.h"
#include "graph/metrics.h"
#include "local/instance.h"
#include "local/runner.h"
#include "local/telemetry.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/assert.h"
#include "util/timer.h"

namespace lnc::fault {
class FaultModel;
}

namespace lnc::local {
struct TrialEnv;
}

namespace lnc::decide {

/// Restricts which verdicts count toward acceptance.
struct FarFrom {
  graph::NodeId node = 0;  ///< the distinguished node u
  int exclusion_radius = 0;  ///< verdicts at distance <= this are ignored
};

struct DecisionOutcome {
  bool accepted = true;  ///< conjunction over the counted verdicts
  std::vector<graph::NodeId> rejecting;  ///< counted nodes voting false

  /// The paper's Reject(u, sigma') set is `rejecting` of an unrestricted
  /// run under a fixed decision seed.
};

struct EvaluateOptions {
  /// Materialized instances only: the restriction reads BFS distances
  /// from u over the CSR graph.
  std::optional<FarFrom> far_from;
  bool grant_n = false;  ///< BPLD#node deciders need |V|

  /// When set, the evaluation charges its modeled communication volume
  /// here (same simulation-theorem accounting as the direct ball runner:
  /// one announcement per member of each counted node's ball, the ball's
  /// canonical word encoding, and max(radius, 1) rounds per evaluation).
  /// Honored by direct evaluate() calls only: the plan factories in
  /// decide/experiment_plans.h REPLACE this per trial with the executing
  /// worker's arena accumulator — a single caller-supplied sink shared
  /// across BatchRunner workers would race; read plan telemetry from
  /// BatchRunner::last_telemetry() / ShardTally::telemetry instead.
  local::Telemetry* telemetry = nullptr;

  /// Reusable ball storage (same contract as local::RunOptions::ball);
  /// the plan factories pass the executing worker's slot per trial.
  local::BallWorkspace* ball = nullptr;

  /// Optional adversary (src/fault/): when `fault` is non-null and
  /// non-trivial, `fault_coins` must be the trial's dedicated fault
  /// stream. Crashed nodes cast no verdict (they are not counted toward
  /// acceptance — a crash-stop node cannot reject), and every surviving
  /// node's decision ball is collected inside the realized fault
  /// subgraph. The decision loop charges NO fault telemetry: whoever ran
  /// the construction tallies the trial's realized faults exactly once
  /// (local::charge_fault_telemetry).
  const fault::FaultModel* fault = nullptr;
  const rand::CoinProvider* fault_coins = nullptr;

  /// The row's ball tables (same contract as local::RunOptions::
  /// ball_tables): a fault-free loop views its decision balls in the one
  /// local::pick_ball_table picks.
  std::span<const graph::BallTable> ball_tables;
};

/// The decider over the configuration, with explicit decision coins (fix
/// the seed upstream to run the paper's D_{sigma'}; a decider whose q is 0
/// draws none).
DecisionOutcome evaluate(const local::Instance& inst,
                         std::span<const local::Label> output,
                         const Decider& decider,
                         const rand::CoinProvider& coins,
                         const EvaluateOptions& options = {});

/// `options` for one plan trial: the worker arena's telemetry and ball
/// slot, the trial's fault stream and its row's ball tables.
EvaluateOptions trial_options(EvaluateOptions options,
                              const local::TrialEnv& env,
                              const rand::PhiloxCoins& fault_coins);

/// The one per-node decision loop over `nodes`, in node order, for the
/// outputs.lanes() trial lanes of `outputs` at once (a labeling is one
/// lane); sets accepted[lane] to whether every verdict it counted in that
/// lane accepts. A node the censor blocks is crashed: no verdict, no
/// charge. Every other node reads its own outputs through
/// `outputs.own(v)`, where the construction memo charges v's construction
/// ball, one label per lane; a counted node then loads its decision ball
/// once (a table view, or collected under the censor: see
/// local::pick_ball_table) and, per lane, fills the workspace's
/// ball-local buffer (`outputs.member(u)[lane]` for u != v) and takes
/// `decide(view, lane)`. There is no early exit; a one-lane loop adds
/// rejecting nodes to `rejecting` when it is non-null. options.telemetry,
/// when set, is charged the decision phase of `nodes` once per lane: each
/// counted ball's members and encoded words, one expansion per counted
/// node, and, from the range holding node 0, the trial's max(radius, 1)
/// rounds.
template <typename Outputs, typename Decide>
void decide_each_node(const local::Instance& inst, int radius,
                      const EvaluateOptions& options,
                      const graph::BallFilter* censor, Outputs& outputs,
                      Decide&& decide, local::NodeRange nodes,
                      std::span<std::uint8_t> accepted,
                      std::vector<graph::NodeId>* rejecting = nullptr) {
  inst.validate();
  LNC_EXPECTS(nodes.begin <= nodes.end && nodes.end <= inst.node_count());
  const std::size_t lanes = outputs.lanes();
  LNC_EXPECTS(accepted.size() == lanes &&
              (rejecting == nullptr || lanes == 1));
  const graph::Topology& topology = inst.topology();
  std::vector<int> far_distance;
  if (options.far_from.has_value()) {
    LNC_EXPECTS(!inst.is_implicit() &&
                "far_from requires a materialized instance");
    far_distance = graph::bfs_distances(inst.g, options.far_from->node);
  }
  auto excluded = [&](graph::NodeId v) {
    return !far_distance.empty() && far_distance[v] >= 0 &&
           far_distance[v] <= options.far_from->exclusion_radius;
  };
  local::BallWorkspace local_workspace;
  local::BallWorkspace& workspace =
      options.ball != nullptr ? *options.ball : local_workspace;
  const graph::BallTable* table =
      local::pick_ball_table(options.ball_tables, inst, radius, censor);
  local::Telemetry charges;  // one lane's: every lane counts the same balls
  std::fill(accepted.begin(), accepted.end(), std::uint8_t{1});

  // Observability, timing-only: on an implicit (giga-scale) instance the
  // range is one node-range trace span and one live progress tick of its
  // node-trials, and every 1024th ball collection is timed — timing 10^8
  // collects individually would dominate the loop. The timed node ends a
  // 1024-node window, never starts one: the streaming loop refills its
  // coin tables at every 256th node, which leaves the cache cold for the
  // next collection. A materialized instance records none of it, so
  // traces keep one batch span per trial batch there.
  const bool observed = inst.is_implicit();
  obs::MetricsRegistry* obs_metrics =
      observed ? obs::worker_metrics() : nullptr;
  constexpr graph::NodeId kCollectSampleMask = 1023;
  std::optional<obs::Span> span;
  if (observed) {
    span.emplace("node-range", obs::span_args("begin", nodes.begin));
  }
  for (graph::NodeId v = nodes.begin; v < nodes.end; ++v) {
    if (censor != nullptr && censor->node_blocked(v)) continue;
    const local::Label* own = outputs.own(v);
    if (excluded(v)) continue;
    if (obs_metrics != nullptr &&
        (v & kCollectSampleMask) == kCollectSampleMask) {
      const util::Timer collect_timer;
      workspace.load(topology, table, v, radius, censor);
      obs_metrics->observe("ball_collect_seconds",
                           collect_timer.elapsed_seconds());
    } else {
      workspace.load(topology, table, v, radius, censor);
    }
    const graph::BallView& ball = workspace.ball;
    const graph::NodeId size = ball.size();
    charges.messages_sent += size;
    charges.words_sent += ball.encoded_words();
    ++charges.ball_expansions;
    // Lane k's ball outputs are ball_output[k * size, (k + 1) * size).
    local::Labeling& ball_output = workspace.outputs;
    ball_output.resize(lanes * size);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      ball_output[lane * size] = own[lane];
    }
    for (graph::NodeId m = 1; m < size; ++m) {
      const local::Label* member = outputs.member(ball.to_original(m));
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        ball_output[lane * size + m] = member[lane];
      }
    }
    local::View view;
    view.ball = &ball;
    view.instance = &inst;
    if (options.grant_n) view.n_nodes = inst.node_count();
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::span<const local::Label> lane_output(
          ball_output.data() + lane * size, size);
      if (!decide(DeciderView{view, lane_output}, lane)) {
        accepted[lane] = 0;
        if (rejecting != nullptr) rejecting->push_back(v);
      }
    }
  }
  if (observed) obs::node_progress_tick((nodes.end - nodes.begin) * lanes);
  if (options.telemetry != nullptr) {
    if (nodes.begin == 0) {
      charges.rounds_executed =
          static_cast<std::uint64_t>(std::max(radius, 1));
    }
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      options.telemetry->merge(charges);
    }
  }
}

}  // namespace lnc::decide
