// Running deciders over whole configurations.
//
// Acceptance is the conjunction of per-node verdicts (paper, Eq. 1). The
// optional "far from u" restriction implements the proof device of Claims
// 4 and 5: only verdicts of nodes at distance GREATER than `exclusion
// radius` from a distinguished node u count. ("We say that D accepts
// (G,(x,y)) far from v if D outputs true at all nodes at distance greater
// than t+t' from v.")
#pragma once

#include <optional>
#include <vector>

#include "decide/decider.h"
#include "local/instance.h"
#include "local/runner.h"
#include "local/telemetry.h"

namespace lnc::fault {
class FaultModel;
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
  /// subgraph. The censor charges NO fault telemetry: the construction
  /// side already tallied this trial's realized faults exactly once.
  const fault::FaultModel* fault = nullptr;
  const rand::CoinProvider* fault_coins = nullptr;
};

/// Deterministic decider over the configuration.
DecisionOutcome evaluate(const local::Instance& inst,
                         std::span<const local::Label> output,
                         const Decider& decider,
                         const EvaluateOptions& options = {});

/// Randomized decider with explicit coins (fix the seed upstream to run
/// the paper's D_{sigma'}).
DecisionOutcome evaluate(const local::Instance& inst,
                         std::span<const local::Label> output,
                         const RandomizedDecider& decider,
                         const rand::CoinProvider& coins,
                         const EvaluateOptions& options = {});

}  // namespace lnc::decide
