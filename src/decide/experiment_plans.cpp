#include "decide/experiment_plans.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/assert.h"
#include "util/timer.h"

namespace lnc::decide {
namespace {

bool fault_requested(const EvaluateOptions& options) {
  return options.fault != nullptr && !options.fault->trivial();
}

}  // namespace

local::ExperimentPlan acceptance_plan(
    std::string name, const local::Instance& inst,
    std::span<const local::Label> output, const RandomizedDecider& decider,
    std::uint64_t trials, std::uint64_t base_seed, EvaluateOptions options,
    bool success_on_accept) {
  local::ExperimentPlan plan;
  plan.name = std::move(name);
  plan.trials = trials;
  plan.base_seed = base_seed;
  plan.success_trial = [&inst, output, &decider, options,
                        success_on_accept](const local::TrialEnv& env) {
    const rand::PhiloxCoins coins = env.decision_coins();
    const rand::PhiloxCoins fault_coins = env.fault_coins();
    EvaluateOptions trial_options = options;
    trial_options.telemetry = &env.arena->telemetry();
    trial_options.ball = &env.arena->ball_workspace();
    if (fault_requested(options)) trial_options.fault_coins = &fault_coins;
    const DecisionOutcome outcome =
        evaluate(inst, output, decider, coins, trial_options);
    return outcome.accepted == success_on_accept;
  };
  return plan;
}

local::ExperimentPlan construct_then_decide_plan(
    std::string name, const local::Instance& inst,
    const local::RandomizedBallAlgorithm& algo,
    const RandomizedDecider& decider, std::uint64_t trials,
    std::uint64_t base_seed, EvaluateOptions options, bool success_on_accept,
    local::ExecMode mode) {
  local::ExperimentPlan plan;
  plan.name = std::move(name);
  plan.trials = trials;
  plan.base_seed = base_seed;
  if (inst.is_implicit()) {
    // Streaming construct-then-decide: an implicit instance has no O(n)
    // labeling to fill, so each node's verdict reads the outputs of its
    // decision ball's members from the worker's construction memo,
    // computing a member's output from its own construction ball only on
    // a miss. Outputs are pure functions of (ball, identities,
    // construction coins), and the conjunction over nodes is taken
    // WITHOUT early exit, so the trial result and the telemetry charges
    // (each node charges its construction ball once — from its memo slot,
    // hit or miss — and its decision ball once; recomputation is not
    // communication) are bit-identical to the materialized path's.
    LNC_EXPECTS(mode == local::ExecMode::kBalls);
    LNC_EXPECTS(!options.far_from.has_value());
    LNC_EXPECTS(!fault_requested(options) &&
                "implicit execution does not support fault models");
    plan.success_trial = [&inst, &algo, &decider, options,
                          success_on_accept](const local::TrialEnv& env) {
      const rand::PhiloxCoins c_coins = env.construction_coins();
      const rand::PhiloxCoins d_coins = env.decision_coins();
      local::WorkerArena& arena = *env.arena;
      local::BallWorkspace& dec_ws = arena.ball_workspace();
      local::BallWorkspace& member_ws = arena.member_ball_workspace();
      local::ConstructionMemo& memo = arena.construction_memo();
      memo.clear();  // the construction coins change per trial
      local::Labeling& member_outputs = arena.ball_outputs();
      const graph::Topology& topology = inst.topology();
      const graph::NodeId n = inst.node_count();
      const int t_cons = algo.radius();
      const int t_dec = decider.radius();
      // Construction coins come from a table refilled every kCoinBlock
      // nodes by one philox_u64_batch call: draws [0, coin_prefix()) of
      // every identity within t_cons + t_dec of the block (identity =
      // v + 1 here), so each is drawn once per block, not once per ball
      // that contains it. Identities outside the window (ring wrap, other
      // grid rows, random neighbours) and draws past the prefix fall back
      // to Philox, so every draw is the one c_coins makes; a prefix of 0
      // leaves the table empty.
      constexpr graph::NodeId kCoinBlock = 256;
      const std::uint64_t coin_prefix = algo.coin_prefix();
      const std::uint64_t halo = static_cast<std::uint64_t>(t_cons + t_dec);
      rand::CoinTable& member_coins = arena.coin_table();
      std::uint64_t announcements = 0;
      std::uint64_t encoded_words = 0;
      std::uint64_t computes = 0;
      std::uint64_t reuses = 0;
      bool accepted = true;
      // Observability over the streaming loop: the node sweep is chunked
      // so giga-scale trials emit node-range trace spans and live
      // progress ticks without perturbing per-node work. Ball-collection
      // latency is SAMPLED (every 1024th node) — timing 10^8 collects
      // individually would dominate the loop. All of it is timing-only:
      // the verdict, telemetry charges, and iteration order are
      // untouched.
      constexpr graph::NodeId kNodeChunk = 1u << 16;
      constexpr graph::NodeId kCollectSampleMask = 1023;
      obs::MetricsRegistry* obs_metrics = obs::worker_metrics();
      for (graph::NodeId chunk_begin = 0; chunk_begin < n;) {
        const graph::NodeId chunk_end =
            n - chunk_begin > kNodeChunk ? chunk_begin + kNodeChunk : n;
        const obs::Span chunk_span(
            "node-range", obs::span_args("begin", chunk_begin));
        for (graph::NodeId v = chunk_begin; v < chunk_end; ++v) {
          if (v % kCoinBlock == 0) {
            // Identities v + 1 - halo .. v + kCoinBlock + halo, in [1, n].
            const std::uint64_t first = v >= halo ? v + 1 - halo : 1;
            const std::uint64_t last = std::min<std::uint64_t>(
                std::uint64_t{v} + kCoinBlock + halo, n);
            member_coins.fill(c_coins, first, last - first + 1, coin_prefix);
          }
          if (obs_metrics != nullptr && (v & kCollectSampleMask) == 0) {
            const util::Timer collect_timer;
            dec_ws.ball.collect(topology, v, t_dec, dec_ws.scratch);
            obs_metrics->observe("ball_collect_seconds",
                                 collect_timer.elapsed_seconds());
          } else {
            dec_ws.ball.collect(topology, v, t_dec, dec_ws.scratch);
          }
          const graph::BallView& dec_ball = dec_ws.ball;
          announcements += dec_ball.size();
          encoded_words += dec_ball.encoded_words();
          member_outputs.assign(dec_ball.size(), 0);
          for (graph::NodeId m = 0; m < dec_ball.size(); ++m) {
            const graph::NodeId u = dec_ball.to_original(m);
            local::ConstructionMemo::Entry& entry = memo.slot(u);
            if (entry.node == u) {
              ++reuses;
            } else {
              ++computes;
              member_ws.ball.collect(topology, u, t_cons, member_ws.scratch);
              local::View member_view;
              member_view.ball = &member_ws.ball;
              member_view.instance = &inst;
              if (options.grant_n) member_view.n_nodes = n;
              entry = {u, member_ws.ball.size(),
                       algo.compute(member_view, member_coins),
                       member_ws.ball.encoded_words()};
            }
            member_outputs[m] = entry.label;
            if (m == 0) {
              // The center's construction ball IS node v's construction-
              // phase visit; charge it exactly once.
              announcements += entry.ball_size;
              encoded_words += entry.encoded_words;
            }
          }
          local::View view;
          view.ball = &dec_ball;
          view.instance = &inst;
          if (options.grant_n) view.n_nodes = n;
          const DeciderView dv{view, {}, member_outputs};
          if (!decider.accept(dv, d_coins)) accepted = false;
        }
        obs::node_progress_tick(chunk_end - chunk_begin);
        chunk_begin = chunk_end;
      }
      local::Telemetry& telemetry = arena.telemetry();
      telemetry.messages_sent += announcements;
      telemetry.words_sent += encoded_words;
      telemetry.rounds_executed +=
          static_cast<std::uint64_t>(std::max(t_cons, 1)) +
          static_cast<std::uint64_t>(std::max(t_dec, 1));
      telemetry.ball_expansions += 2 * static_cast<std::uint64_t>(n);
      if (obs_metrics != nullptr) {
        // Once per trial: add_counter builds a string key.
        obs_metrics->add_counter("stream_construction_computes", computes);
        obs_metrics->add_counter("stream_construction_reuses", reuses);
      }
      return accepted == success_on_accept;
    };
    return plan;
  }
  plan.success_trial = [&inst, &algo, &decider, options, success_on_accept,
                        mode](const local::TrialEnv& env) {
    const rand::PhiloxCoins c_coins = env.construction_coins();
    const rand::PhiloxCoins d_coins = env.decision_coins();
    const rand::PhiloxCoins f_coins = env.fault_coins();
    local::ExecOptions exec_options;
    exec_options.grant_n = options.grant_n;
    exec_options.arena = env.arena;
    // One realized adversary per trial, shared by both phases: the
    // construction runs (and charges the realized faults) under the same
    // fault stream the decision censor reads.
    exec_options.fault = options.fault;
    exec_options.fault_coins = &f_coins;
    local::Labeling& output = env.arena->labeling();
    local::run_construction_into(inst, algo, c_coins, mode, output,
                                 exec_options);
    EvaluateOptions trial_options = options;
    trial_options.telemetry = &env.arena->telemetry();
    trial_options.ball = &env.arena->ball_workspace();
    if (fault_requested(options)) trial_options.fault_coins = &f_coins;
    const DecisionOutcome outcome =
        evaluate(inst, output, decider, d_coins, trial_options);
    return outcome.accepted == success_on_accept;
  };
  return plan;
}

local::ExperimentPlan guarantee_side_plan(
    std::string name, const ConfigurationSampler& sampler,
    const RandomizedDecider& decider, bool want_accept, std::uint64_t trials,
    std::uint64_t base_seed, EvaluateOptions options) {
  local::ExperimentPlan plan;
  plan.name = std::move(name);
  plan.trials = trials;
  plan.base_seed = base_seed;
  // Cache-owner token: unique per plan object, NOT the sampler's address —
  // a stack/loop-local sampler can be freed and a different sampler can
  // land at the same address, which would otherwise replay a stale cached
  // configuration on a warm runner.
  static std::atomic<std::uintptr_t> next_owner_token{1};
  const std::uintptr_t owner_token =
      next_owner_token.fetch_add(1, std::memory_order_relaxed);
  plan.success_trial = [&sampler, owner_token, &decider, want_accept,
                        options](const local::TrialEnv& env) {
    // The sample lives in the worker arena: its instance/output capacity
    // persists across trials, and an exact (plan, seed) repeat — e.g.
    // re-running a plan on a warm runner — skips resampling entirely.
    local::WorkerArena& arena = *env.arena;
    const auto* owner = reinterpret_cast<const void*>(owner_token);
    const std::uint64_t seed = env.sample_seed();
    local::SampledConfiguration& sample = arena.sample_slot();
    if (!arena.sample_matches(owner, seed)) {
      sample = sampler(seed);
      arena.note_sample(owner, seed);
    }
    const rand::PhiloxCoins coins = env.decision_coins();
    const rand::PhiloxCoins fault_coins = env.fault_coins();
    EvaluateOptions trial_options = options;
    trial_options.telemetry = &arena.telemetry();
    trial_options.ball = &arena.ball_workspace();
    if (fault_requested(options)) trial_options.fault_coins = &fault_coins;
    const DecisionOutcome outcome =
        evaluate(sample.inst(), sample.output, decider, coins,
                 trial_options);
    return outcome.accepted == want_accept;
  };
  return plan;
}

}  // namespace lnc::decide
