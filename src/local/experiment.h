// Unified execution of construction algorithms across the paper's three
// equivalent views of a t-round LOCAL computation (section 2.1.1):
//
//   kBalls     — every node inspects B_G(v, t) directly (the direct ball
//                runner: the fast path);
//   kMessages  — the algorithm runs natively through the synchronous round
//                engine: each node floods its knowledge for t rounds and
//                applies the ball algorithm to its own reconstruction
//                *inside the node program* (the simulation theorem,
//                executed as one engine program);
//   kTwoPhase  — phase one collects balls through the engine, phase two
//                reconstructs and computes in the harness.
//
// Both simulation modes reconstruct B_G(v, t) from the flooding
// collector's knowledge table (local/ball_collector.h) and compute on it
// through one helper.
//
// tests/batch_test.cpp asserts the three modes agree label for label.
//
// The plan factories below wrap a construction run into an ExperimentPlan
// for local/batch_runner.h — one trial = one fresh construction-coin
// stream, executed against a predicate (success probability) or statistic
// (mean) of the produced labeling.
#pragma once

#include "local/batch_runner.h"
#include "local/runner.h"

namespace lnc::fault {
class BallCensor;
class FaultModel;
}

namespace lnc::local {

enum class ExecMode { kBalls, kMessages, kTwoPhase };

const char* to_string(ExecMode mode) noexcept;

/// Inverse of to_string — the one parser behind spec files and --mode.
/// Nullopt on an unknown tag (callers own the error message).
std::optional<ExecMode> exec_mode_from_string(std::string_view text) noexcept;

struct ExecOptions {
  /// Reusable per-worker storage; null uses call-local scratch.
  WorkerArena* arena = nullptr;

  /// Optional adversary (src/fault/): when `fault` is non-null and
  /// non-trivial, `fault_coins` must be the trial's dedicated fault
  /// stream. Only kBalls honors faults here — every ball is collected in
  /// the trial's realized fault subgraph and the realized faults are
  /// charged to the arena telemetry once per trial. The simulation modes
  /// (kMessages/kTwoPhase) assert the model away; scenario validation
  /// never routes a faulty spec at them. Engine-backed constructions
  /// apply faults through EngineOptions instead (scenario/builtins.cpp).
  const fault::FaultModel* fault = nullptr;
  const rand::CoinProvider* fault_coins = nullptr;

  /// The row's ball tables (RunOptions::ball_tables); only kBalls reads
  /// them.
  std::span<const graph::BallTable> ball_tables;
};

/// The trial's realized fault subgraph as a ball filter, or nullopt when
/// `model` is null or trivial; a non-trivial model requires the trial's
/// `fault_coins`.
std::optional<fault::BallCensor> trial_censor(
    const Instance& inst, const fault::FaultModel* model,
    const rand::CoinProvider* fault_coins);

/// Tallies the realized fault subgraph of one trial at `nodes` into
/// `telemetry`: every failed node (nodes_crashed) and, between surviving
/// nodes, every dropped or churned edge whose lower endpoint is in
/// `nodes` (messages_dropped / edges_churned). A pure function of (model,
/// fault coins, instance identities), so over any partition of a trial's
/// nodes it sums to the trial's tally — the ball path's deterministic
/// fault accounting, charged once per node by run_construction_into (all
/// nodes) or by each part of a streaming construct-then-decide trial
/// (decide/experiment_plans.cpp). Reads inst.topology(), so it holds no
/// O(n) state on implicit instances.
void charge_fault_telemetry(const Instance& inst,
                            const fault::FaultModel& model,
                            const rand::CoinProvider& fault_coins,
                            NodeRange nodes, Telemetry& telemetry);

/// Runs a deterministic construction algorithm in the given mode.
void run_construction_into(const Instance& inst, const BallAlgorithm& algo,
                           ExecMode mode, Labeling& output,
                           const ExecOptions& options = {});
Labeling run_construction(const Instance& inst, const BallAlgorithm& algo,
                          ExecMode mode, const ExecOptions& options = {});

/// Runs a Monte-Carlo construction algorithm in the given mode with the
/// given coins (fix the seed upstream to realize a fixed sigma).
void run_construction_into(const Instance& inst,
                           const RandomizedBallAlgorithm& algo,
                           const rand::CoinProvider& coins, ExecMode mode,
                           Labeling& output, const ExecOptions& options = {});
Labeling run_construction(const Instance& inst,
                          const RandomizedBallAlgorithm& algo,
                          const rand::CoinProvider& coins, ExecMode mode,
                          const ExecOptions& options = {});

/// The most bytes construct_trial's per-trial coin table may take: draws
/// [0, coin_prefix()) of every identity between the instance's smallest
/// and largest, 8 bytes each. Like the vector engine's batch budget, it
/// keeps the table cache-sized next to the trial that reads it; sparse
/// identities or huge instances skip the table.
inline constexpr std::uint64_t kCoinTableBudget = std::uint64_t{4} << 20;

/// One plan trial's construction: `algo` under the trial's construction
/// coins and fault stream (`fault` may be null), into the worker arena's
/// labeling, which it returns. Ball mode reads the trial's ball tables.
/// When the algorithm declares a coin_prefix() and the instance's
/// identity range times the prefix fits kCoinTableBudget, the trial's
/// coins are first drawn in batched Philox calls into the worker's coin
/// table, and every ball reads its members' coins there; the table is
/// the trial's coins bit for bit.
const Labeling& construct_trial(const TrialEnv& env, const Instance& inst,
                                const RandomizedBallAlgorithm& algo,
                                ExecMode mode, const fault::FaultModel* fault);

/// Per-output success / statistic checks. Callers close over languages,
/// relaxations, or any other acceptance notion.
using OutputPredicate =
    std::function<bool(const Instance&, const Labeling&)>;
using OutputStatistic =
    std::function<double(const Instance&, const Labeling&)>;

/// Pr over fresh construction coins that predicate(inst, C(inst)) holds.
/// The referenced instance, algorithm, and fault model (when non-null: a
/// per-trial fault stream is derived from each TrialEnv) must outlive the
/// plan's run.
ExperimentPlan construction_plan(std::string name, const Instance& inst,
                                 const RandomizedBallAlgorithm& algo,
                                 OutputPredicate predicate,
                                 std::uint64_t trials, std::uint64_t base_seed,
                                 ExecMode mode = ExecMode::kBalls,
                                 const fault::FaultModel* fault = nullptr);

/// Mean over fresh construction coins of statistic(inst, C(inst)).
ExperimentPlan construction_value_plan(
    std::string name, const Instance& inst,
    const RandomizedBallAlgorithm& algo, OutputStatistic statistic,
    std::uint64_t trials, std::uint64_t base_seed,
    ExecMode mode = ExecMode::kBalls, const fault::FaultModel* fault = nullptr);

}  // namespace lnc::local
