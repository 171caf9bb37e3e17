#include "local/experiment.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "util/assert.h"

namespace lnc::local {
namespace {

bool fault_engaged(const ExecOptions& options) {
  return options.fault != nullptr && !options.fault->trivial();
}

/// The smallest and largest identity of a non-empty instance.
std::pair<ident::Identity, ident::Identity> identity_range(
    const Instance& inst) {
  if (inst.is_implicit()) return {1, inst.node_count()};
  const auto [low, high] =
      std::minmax_element(inst.ids.raw().begin(), inst.ids.raw().end());
  return {*low, *high};
}

/// Per-node compute step shared by the messages and two-phase modes.
using ComputeFromView = std::function<Label(const View&)>;

/// Phase two of the simulation theorem at one node: rebuild B_G(v,
/// radius) from v's knowledge table and apply `compute` to it. The
/// reconstruction holds exactly the ball (ball_collector tests), so the
/// view is the one a direct run sees, modulo node indexing, which the
/// View interface hides.
Label compute_on_reconstruction(const Knowledge& knowledge,
                                ident::Identity center, int radius,
                                const ComputeFromView& compute,
                                BallWorkspace& workspace) {
  const ReconstructedBall ball = reconstruct_ball(knowledge, center);
  workspace.ball.collect(ball.instance.g, ball.center, radius,
                         workspace.scratch);
  View view;
  view.ball = &workspace.ball;
  view.instance = &ball.instance;
  return compute(view);
}

/// The simulation theorem executed inside the node: flood for t rounds
/// (inherited collector behavior), then reconstruct B_G(v, t) from the
/// knowledge table and apply the ball algorithm locally.
class SimulatingProgram final : public BallCollectorProgram {
 public:
  SimulatingProgram(int radius, const ComputeFromView* compute)
      : BallCollectorProgram(radius), compute_(compute) {}

  bool init(const NodeEnv& env) override {
    const bool done = BallCollectorProgram::init(env);
    if (done) finish();  // zero-round algorithm: compute immediately
    return done;
  }

  bool receive(int round, const Inbox& inbox) override {
    const bool done = BallCollectorProgram::receive(round, inbox);
    if (done) finish();
    return done;
  }

  Label output() const override { return out_; }

 private:
  void finish() {
    BallWorkspace workspace;
    out_ = compute_on_reconstruction(knowledge(), self_identity(), radius(),
                                     *compute_, workspace);
  }

  const ComputeFromView* compute_;
  Label out_ = 0;
};

class SimulatingFactory final : public NodeProgramFactory {
 public:
  SimulatingFactory(std::string name, int radius, ComputeFromView compute)
      : name_(std::move(name)),
        radius_(radius),
        compute_(std::move(compute)) {}

  std::string name() const override { return name_ + "@messages"; }

  std::unique_ptr<NodeProgram> create() const override {
    return std::make_unique<SimulatingProgram>(radius_, &compute_);
  }

 private:
  std::string name_;
  int radius_;
  ComputeFromView compute_;
};

void run_messages_mode(const Instance& inst, const std::string& name,
                       int radius, ComputeFromView compute, Labeling& output,
                       const ExecOptions& options) {
  SimulatingFactory factory(name, radius, std::move(compute));
  EngineOptions engine_options;
  if (options.arena != nullptr) {
    engine_options.scratch = &options.arena->engine();
  }
  EngineResult result = run_engine(inst, factory, engine_options);
  LNC_ASSERT(result.completed);
  output = std::move(result.output);
}

void run_two_phase_mode(const Instance& inst, int radius,
                        const ComputeFromView& compute, Labeling& output,
                        const ExecOptions& options) {
  EngineOptions engine_options;
  std::vector<Knowledge> local_tables;
  std::vector<Knowledge>& tables = options.arena != nullptr
                                       ? options.arena->knowledge()
                                       : local_tables;
  if (options.arena != nullptr) {
    engine_options.scratch = &options.arena->engine();
  }
  collect_balls_into(inst, radius, engine_options, tables);

  const graph::NodeId n = inst.node_count();
  output.assign(n, 0);
  BallWorkspace local_workspace;
  BallWorkspace& workspace = options.arena != nullptr
                                 ? options.arena->ball_workspace()
                                 : local_workspace;
  for (graph::NodeId v = 0; v < n; ++v) {
    output[v] = compute_on_reconstruction(tables[v], inst.ids[v], radius,
                                          compute, workspace);
  }
  if (options.arena != nullptr) {
    // Phase-one flooding was measured by the engine; phase two only
    // materializes the reconstructed balls in the harness.
    options.arena->telemetry().ball_expansions += n;
  }
}

}  // namespace

std::optional<fault::BallCensor> trial_censor(
    const Instance& inst, const fault::FaultModel* model,
    const rand::CoinProvider* fault_coins) {
  if (model == nullptr || model->trivial()) return std::nullopt;
  LNC_EXPECTS(fault_coins != nullptr &&
              "non-trivial fault model requires its coin stream");
  return fault::BallCensor(
      *model, *fault_coins,
      [&inst](graph::NodeId v) { return inst.identity_of(v); });
}

void charge_fault_telemetry(const Instance& inst,
                            const fault::FaultModel& model,
                            const rand::CoinProvider& fault_coins,
                            NodeRange nodes, Telemetry& telemetry) {
  const graph::Topology& topology = inst.topology();
  auto failed = [&](graph::NodeId v) {
    return model.ball_node_failed(fault_coins, inst.identity_of(v));
  };
  std::vector<graph::NodeId> row;
  for (graph::NodeId v = nodes.begin; v < nodes.end; ++v) {
    if (failed(v)) {
      ++telemetry.nodes_crashed;
      continue;
    }
    for (const graph::NodeId w : topology.neighbors_of(v, row)) {
      // Each surviving undirected edge is drawn once (lower endpoint).
      if (w <= v || failed(w)) continue;
      switch (model.ball_edge_fault(fault_coins, inst.identity_of(v),
                                    inst.identity_of(w))) {
        case fault::EdgeFault::kDropped:
          ++telemetry.messages_dropped;
          break;
        case fault::EdgeFault::kChurned:
          ++telemetry.edges_churned;
          break;
        case fault::EdgeFault::kNone:
          break;
      }
    }
  }
}

const char* to_string(ExecMode mode) noexcept {
  switch (mode) {
    case ExecMode::kBalls:
      return "balls";
    case ExecMode::kMessages:
      return "messages";
    case ExecMode::kTwoPhase:
      return "two-phase";
  }
  return "?";
}

std::optional<ExecMode> exec_mode_from_string(std::string_view text) noexcept {
  if (text == "balls") return ExecMode::kBalls;
  if (text == "messages") return ExecMode::kMessages;
  if (text == "two-phase") return ExecMode::kTwoPhase;
  return std::nullopt;
}

void run_construction_into(const Instance& inst, const BallAlgorithm& algo,
                           ExecMode mode, Labeling& output,
                           const ExecOptions& options) {
  // A deterministic algorithm is a randomized one that reads no coins.
  const rand::PhiloxCoins unread(0, rand::Stream::kAux);
  run_construction_into(inst, AsRandomized(algo), unread, mode, output,
                        options);
}

void run_construction_into(const Instance& inst,
                           const RandomizedBallAlgorithm& algo,
                           const rand::CoinProvider& coins, ExecMode mode,
                           Labeling& output, const ExecOptions& options) {
  if (mode != ExecMode::kBalls) {
    LNC_EXPECTS(!fault_engaged(options) &&
                "simulation modes do not support fault models");
    ComputeFromView compute = [&algo, &coins](const View& view) {
      return algo.compute(view, coins);
    };
    if (mode == ExecMode::kMessages) {
      run_messages_mode(inst, algo.name(), algo.radius(), std::move(compute),
                        output, options);
    } else {
      run_two_phase_mode(inst, algo.radius(), compute, output, options);
    }
    return;
  }
  RunOptions run_options;
  run_options.ball_tables = options.ball_tables;
  if (options.arena != nullptr) {
    run_options.telemetry = &options.arena->telemetry();
    run_options.ball = &options.arena->ball_workspace();
  }
  // Under a fault model every ball is collected in the trial's realized
  // fault subgraph, and the realized faults are charged once.
  const std::optional<fault::BallCensor> censor =
      trial_censor(inst, options.fault, options.fault_coins);
  if (censor.has_value()) run_options.ball_filter = &*censor;
  run_ball_algorithm_into(inst, algo, coins, output, run_options);
  if (censor.has_value() && options.arena != nullptr) {
    charge_fault_telemetry(inst, *options.fault, *options.fault_coins,
                           {0, inst.node_count()}, options.arena->telemetry());
  }
}

Labeling run_construction(const Instance& inst, const BallAlgorithm& algo,
                          ExecMode mode, const ExecOptions& options) {
  Labeling output;
  run_construction_into(inst, algo, mode, output, options);
  return output;
}

Labeling run_construction(const Instance& inst,
                          const RandomizedBallAlgorithm& algo,
                          const rand::CoinProvider& coins, ExecMode mode,
                          const ExecOptions& options) {
  Labeling output;
  run_construction_into(inst, algo, coins, mode, output, options);
  return output;
}

const Labeling& construct_trial(const TrialEnv& env, const Instance& inst,
                                const RandomizedBallAlgorithm& algo,
                                ExecMode mode, const fault::FaultModel* fault) {
  const rand::PhiloxCoins coins = env.construction_coins();
  const rand::PhiloxCoins fault_coins = env.fault_coins();
  ExecOptions options;
  options.arena = env.arena;
  options.fault = fault;
  options.fault_coins = &fault_coins;
  options.ball_tables = env.ball_tables;
  Labeling& output = env.arena->labeling();
  const rand::CoinProvider* provider = &coins;
  const std::uint64_t prefix = algo.coin_prefix();
  if (prefix > 0 && inst.node_count() > 0) {
    const auto [first, last] = identity_range(inst);
    const std::uint64_t span = last - first + 1;
    if (span <= kCoinTableBudget / sizeof(std::uint64_t) / prefix) {
      rand::CoinTable& table = env.arena->coin_tables(1).front();
      table.fill(coins, first, span, prefix);
      provider = &table;
    }
  }
  run_construction_into(inst, algo, *provider, mode, output, options);
  return output;
}

ExperimentPlan construction_plan(std::string name, const Instance& inst,
                                 const RandomizedBallAlgorithm& algo,
                                 OutputPredicate predicate,
                                 std::uint64_t trials, std::uint64_t base_seed,
                                 ExecMode mode,
                                 const fault::FaultModel* fault) {
  ExperimentPlan plan;
  plan.name = std::move(name);
  plan.trials = trials;
  plan.base_seed = base_seed;
  plan.trial = [&inst, &algo, predicate = std::move(predicate), mode,
                fault](const TrialEnv& env, ShardTally& tally) {
    if (predicate(inst, construct_trial(env, inst, algo, mode, fault))) {
      ++tally.successes;
    }
  };
  return plan;
}

ExperimentPlan construction_value_plan(
    std::string name, const Instance& inst,
    const RandomizedBallAlgorithm& algo, OutputStatistic statistic,
    std::uint64_t trials, std::uint64_t base_seed, ExecMode mode,
    const fault::FaultModel* fault) {
  ExperimentPlan plan;
  plan.name = std::move(name);
  plan.trials = trials;
  plan.base_seed = base_seed;
  plan.workload = WorkloadKind::kValue;
  plan.trial = [&inst, &algo, statistic = std::move(statistic), mode,
                fault](const TrialEnv& env, ShardTally& tally) {
    tally.add_value(
        statistic(inst, construct_trial(env, inst, algo, mode, fault)));
  };
  return plan;
}

}  // namespace lnc::local
