#include "decide/experiment_plans.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "util/assert.h"

namespace lnc::decide {
namespace {

/// Member outputs for the implicit ball-mode part body, one lane per
/// trial of the part's batch, from the worker's construction memo: a miss
/// collects the member's construction ball once, under the trial's
/// censor, and computes each lane's output from it with that lane's
/// construction coins. Outputs are pure functions of (ball, identities,
/// construction coins), so a reuse and a recomputation agree bit for bit.
/// Recomputation is not communication: each surviving node charges its
/// construction ball exactly once per lane, from own().
struct MemoOutputs {
  const local::Instance& inst;
  const local::RandomizedBallAlgorithm& algo;
  std::span<const local::TrialEnv> envs;  ///< the lanes
  const graph::BallFilter* censor;
  std::uint64_t halo;  ///< t_cons + t_dec, the coin window's margin
  local::ConstructionMemo& memo;
  std::span<rand::CoinTable> tables;  ///< the worker's, one per lane
  graph::BallScratch& scratch;  ///< shared with the decision balls
  local::Telemetry charges = {};  ///< one lane's construction phase
  std::uint64_t block_end = 0;
  std::uint64_t computes = 0;
  std::uint64_t reuses = 0;

  std::size_t lanes() const noexcept { return envs.size(); }

  const local::Label* own(graph::NodeId v) {
    if (v >= block_end) refill_coins(v);
    const local::ConstructionMemo::Entry& entry = lookup(v);
    charges.messages_sent += entry.ball_size;
    charges.words_sent += entry.encoded_words;
    ++charges.ball_expansions;
    return memo.labels(v);
  }

  const local::Label* member(graph::NodeId u) {
    lookup(u);
    return memo.labels(u);
  }

  // Construction coins come from the worker's coin tables, each refilled
  // every kCoinBlock nodes in batched Philox calls: draws
  // [0, coin_prefix()) of every identity within t_cons + t_dec of the
  // block (identity = v + 1 here), so each is drawn once per block and
  // lane, not once per ball that contains it. Identities outside the
  // window (ring wrap, other grid rows, random neighbours) and draws past
  // the prefix fall back to Philox, so every draw is the one the lane's
  // construction coins make; a prefix of 0 leaves the tables empty.
  static constexpr graph::NodeId kCoinBlock = 256;
  static_assert(local::kPartNodes % kCoinBlock == 0,
                "a part starts on a coin block");

  void refill_coins(graph::NodeId v) {
    const std::uint64_t begin = v - v % kCoinBlock;
    block_end = begin + kCoinBlock;
    // Identities begin + 1 - halo .. begin + kCoinBlock + halo, in [1, n].
    const std::uint64_t first = begin >= halo ? begin + 1 - halo : 1;
    const std::uint64_t last = std::min<std::uint64_t>(
        begin + kCoinBlock + halo, inst.node_count());
    for (std::size_t lane = 0; lane < lanes(); ++lane) {
      tables[lane].fill(envs[lane].construction_coins(), first,
                        last - first + 1, algo.coin_prefix());
    }
  }

  const local::ConstructionMemo::Entry& lookup(graph::NodeId u) {
    local::ConstructionMemo::Entry& entry = memo.slot(u);
    if (entry.node == u) {
      ++reuses;
      return entry;
    }
    ++computes;
    graph::BallView& ball = memo.ball;
    ball.collect(inst.topology(), u, algo.radius(), scratch, censor);
    local::View view;
    view.ball = &ball;
    view.instance = &inst;
    local::Label* labels = memo.labels(u);
    for (std::size_t lane = 0; lane < lanes(); ++lane) {
      labels[lane] = algo.compute(view, tables[lane]);
    }
    entry = {u, ball.size(), ball.encoded_words()};
    return entry;
  }
};

}  // namespace

local::ExperimentPlan acceptance_plan(
    std::string name, const local::Instance& inst,
    std::span<const local::Label> output, const Decider& decider,
    std::uint64_t trials, std::uint64_t base_seed, EvaluateOptions options,
    bool success_on_accept) {
  local::ExperimentPlan plan;
  plan.name = std::move(name);
  plan.trials = trials;
  plan.base_seed = base_seed;
  plan.trial = [&inst, output, &decider, options, success_on_accept](
                   const local::TrialEnv& env, local::ShardTally& tally) {
    const rand::PhiloxCoins fault_coins = env.fault_coins();
    if (evaluate(inst, output, decider, env.decision_coins(),
                 trial_options(options, env, fault_coins))
            .accepted == success_on_accept) {
      ++tally.successes;
    }
  };
  return plan;
}

local::ExperimentPlan construct_then_decide_plan(
    std::string name, const local::Instance& inst,
    const local::RandomizedBallAlgorithm& algo,
    const Decider& decider, std::uint64_t trials,
    std::uint64_t base_seed, EvaluateOptions options, bool success_on_accept,
    local::ExecMode mode) {
  local::ExperimentPlan plan;
  plan.name = std::move(name);
  plan.trials = trials;
  plan.base_seed = base_seed;
  if (mode != local::ExecMode::kBalls || !inst.is_implicit()) {
    // Construct a full labeling, then decide it. The simulation-theorem
    // modes produce one by nature (through the engine, which rejects fault
    // models). A materialized instance holds O(n) state anyway, and the
    // ball runner computes each output once, where the memo below
    // recomputes one on every miss: most lookups on tori, hypercubes and
    // random graphs.
    plan.trial = [&inst, &algo, &decider, options, success_on_accept, mode](
                     const local::TrialEnv& env, local::ShardTally& tally) {
      const local::Labeling& output =
          local::construct_trial(env, inst, algo, mode, options.fault);
      const rand::PhiloxCoins fault_coins = env.fault_coins();
      if (evaluate(inst, output, decider, env.decision_coins(),
                   trial_options(options, env, fault_coins))
              .accepted == success_on_accept) {
        ++tally.successes;
      }
    };
    return plan;
  }
  // Implicit ball mode: one pass of the decision loop, no O(n) labeling,
  // run as node-range parts (local::PartedTrial) so one trial spreads over
  // every worker. A part call runs a batch of trials as lanes: without a
  // fault every trial sees the same balls, so each ball is collected once
  // for the batch; with one, each trial's realized adversary censors both
  // phases, and a batch is one trial. Each part starts with a cold memo
  // and coin tables, which only recomputes a few outputs at its edges;
  // member outputs come from the construction memo.
  plan.parts.nodes = inst.node_count();
  plan.parts.success_on_accept = success_on_accept;
  plan.parts.shares_balls =
      options.fault == nullptr || options.fault->trivial();
  plan.parts.part = [&inst, &algo, &decider, options](
                        std::span<const local::TrialEnv> envs,
                        local::NodeRange nodes,
                        std::span<std::uint8_t> accepts) {
    const local::TrialEnv& first = envs.front();
    const rand::PhiloxCoins f_coins = first.fault_coins();
    local::WorkerArena& arena = *first.arena;
    const EvaluateOptions decide_options =
        trial_options(options, first, f_coins);
    const std::optional<fault::BallCensor> censor =
        local::trial_censor(inst, options.fault, &f_coins);
    LNC_EXPECTS(!censor.has_value() || envs.size() == 1);
    const graph::BallFilter* filter = censor.has_value() ? &*censor : nullptr;
    std::vector<rand::PhiloxCoins> d_coins;
    d_coins.reserve(envs.size());
    for (const local::TrialEnv& env : envs) {
      d_coins.push_back(env.decision_coins());
    }
    local::ConstructionMemo& memo = arena.construction_memo();
    memo.clear(inst.node_count(), envs.size());
    MemoOutputs outputs{
        inst, algo, envs, filter,
        static_cast<std::uint64_t>(algo.radius() + decider.radius()), memo,
        arena.coin_tables(envs.size()), arena.ball_workspace().scratch};
    decide_each_node(
        inst, decider.radius(), decide_options, filter, outputs,
        [&](const DeciderView& view, std::size_t lane) {
          return decider.accept(view, d_coins[lane]);
        },
        nodes, accepts);
    if (nodes.begin == 0) {
      outputs.charges.rounds_executed =
          static_cast<std::uint64_t>(std::max(algo.radius(), 1));
    }
    for (std::size_t lane = 0; lane < envs.size(); ++lane) {
      arena.telemetry().merge(outputs.charges);
    }
    if (censor.has_value()) {
      local::charge_fault_telemetry(inst, *options.fault, f_coins, nodes,
                                    arena.telemetry());
    }
    if (obs::MetricsRegistry* metrics = obs::worker_metrics()) {
      // Once per part: add_counter builds a string key.
      metrics->add_counter("stream_construction_computes", outputs.computes);
      metrics->add_counter("stream_construction_reuses", outputs.reuses);
    }
  };
  return plan;
}

local::ExperimentPlan guarantee_side_plan(
    std::string name, const ConfigurationSampler& sampler,
    const Decider& decider, bool want_accept, std::uint64_t trials,
    std::uint64_t base_seed, EvaluateOptions options) {
  local::ExperimentPlan plan;
  plan.name = std::move(name);
  plan.trials = trials;
  plan.base_seed = base_seed;
  plan.trial = [&sampler, &decider, want_accept, options](
                   const local::TrialEnv& env, local::ShardTally& tally) {
    const SampledConfiguration sample = sampler(env.sample_seed());
    const rand::PhiloxCoins fault_coins = env.fault_coins();
    if (evaluate(sample.inst(), sample.output, decider, env.decision_coins(),
                 trial_options(options, env, fault_coins))
            .accepted == want_accept) {
      ++tally.successes;
    }
  };
  return plan;
}

}  // namespace lnc::decide
