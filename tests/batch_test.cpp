// Tests for the unified batched experiment engine (local/batch_runner.h +
// local/experiment.h):
//
//  * bit-for-bit reproducibility — a plan produces byte-identical
//    estimates for thread counts 1, 2, and 8 (the contract that makes
//    every experiment in the repo replayable from a 64-bit seed);
//  * execution-mode agreement — balls, native messages, and two-phase
//    simulation produce identical labelings on six graph families for
//    algorithms that read identities, inputs, distances and ball
//    structure, deterministic AND randomized;
//  * arena reuse — warm per-worker arenas do not leak state between
//    trials or between consecutive runs.
#include <gtest/gtest.h>

#include "algo/rand_coloring.h"
#include "core/hard_instances.h"
#include "decide/experiment_plans.h"
#include "decide/resilient_decider.h"
#include "graph/generators.h"
#include "lang/coloring.h"
#include "lang/relax.h"
#include "local/experiment.h"

namespace lnc {
namespace {

using local::BatchRunner;
using local::ExecMode;

// -- algorithms that read only model-visible data --------------------------

class CenterRank final : public local::BallAlgorithm {
 public:
  explicit CenterRank(int radius) : radius_(radius) {}
  std::string name() const override { return "center-rank"; }
  int radius() const override { return radius_; }
  local::Label compute(const local::View& view) const override {
    local::Label rank = 0;
    for (graph::NodeId i = 1; i < view.ball->size(); ++i) {
      if (view.identity(i) < view.center_identity()) ++rank;
    }
    return rank;
  }

 private:
  int radius_;
};

class DistanceWeightedSum final : public local::BallAlgorithm {
 public:
  std::string name() const override { return "distance-weighted-sum"; }
  int radius() const override { return 2; }
  local::Label compute(const local::View& view) const override {
    local::Label sum = 0;
    for (graph::NodeId i = 0; i < view.ball->size(); ++i) {
      sum += view.input(i) *
             static_cast<local::Label>(view.ball->distance(i) + 1);
    }
    return sum;
  }
};

class DegreeProfile final : public local::BallAlgorithm {
 public:
  std::string name() const override { return "degree-profile"; }
  int radius() const override { return 1; }
  local::Label compute(const local::View& view) const override {
    local::Label profile = view.ball->degree_in_ball(0);
    for (graph::NodeId nbr : view.ball->neighbors(0)) {
      profile += 100 * view.ball->degree_in_ball(nbr);
    }
    return profile;
  }
};

local::Instance labeled(graph::Graph g, std::uint64_t seed) {
  const graph::NodeId n = g.node_count();
  local::Instance inst = local::make_instance(
      std::move(g), ident::random_permutation(n, seed));
  inst.input.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    inst.input[v] = (seed + v * v) % 7;
  }
  return inst;
}

graph::Graph family(int index) {
  switch (index) {
    case 0: return graph::cycle(17);
    case 1: return graph::grid(5, 4);
    case 2: return graph::binary_tree(31);
    case 3: return graph::petersen();
    case 4: return graph::random_regular(24, 3, 11);
    default: return graph::hypercube(4);
  }
}

// -- execution-mode agreement ----------------------------------------------

class ModeAgreement : public ::testing::TestWithParam<int> {};

TEST_P(ModeAgreement, DeterministicAlgorithmsAgreeAcrossModes) {
  const local::Instance inst = labeled(family(GetParam()), 13);
  const CenterRank rank2(2);
  const DistanceWeightedSum sums;
  const DegreeProfile profile;
  const local::BallAlgorithm* algos[] = {&rank2, &sums, &profile};
  for (const local::BallAlgorithm* algo : algos) {
    const local::Labeling balls =
        run_construction(inst, *algo, ExecMode::kBalls);
    EXPECT_EQ(run_construction(inst, *algo, ExecMode::kMessages), balls)
        << algo->name() << " messages != balls";
    EXPECT_EQ(run_construction(inst, *algo, ExecMode::kTwoPhase), balls)
        << algo->name() << " two-phase != balls";
  }
}

TEST_P(ModeAgreement, RandomizedColoringAgreesAcrossModes) {
  const local::Instance inst = labeled(family(GetParam()), 29);
  const algo::UniformRandomColoring coloring(3);
  const rand::PhiloxCoins coins(77, rand::Stream::kConstruction);
  const local::Labeling balls =
      run_construction(inst, coloring, coins, ExecMode::kBalls);
  EXPECT_EQ(run_construction(inst, coloring, coins, ExecMode::kMessages),
            balls);
  EXPECT_EQ(run_construction(inst, coloring, coins, ExecMode::kTwoPhase),
            balls);
}

INSTANTIATE_TEST_SUITE_P(Families, ModeAgreement, ::testing::Range(0, 6));

TEST(ModeAgreement, ArenaReuseMatchesFreshScratch) {
  const local::Instance a = labeled(family(1), 3);
  const local::Instance b = labeled(family(4), 5);
  const CenterRank rank(2);
  local::WorkerArena arena;
  local::ExecOptions with_arena;
  with_arena.arena = &arena;
  // Alternate instances through ONE arena; outputs must equal fresh runs.
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(run_construction(a, rank, ExecMode::kTwoPhase, with_arena),
              run_construction(a, rank, ExecMode::kTwoPhase));
    EXPECT_EQ(run_construction(b, rank, ExecMode::kMessages, with_arena),
              run_construction(b, rank, ExecMode::kMessages));
  }
}

// -- bit-for-bit reproducibility across thread counts ----------------------

void expect_identical(const stats::Estimate& x, const stats::Estimate& y) {
  EXPECT_EQ(x.successes, y.successes);
  EXPECT_EQ(x.trials, y.trials);
  EXPECT_EQ(x.p_hat, y.p_hat);  // exact: same integers, same division
  EXPECT_EQ(x.ci.lo, y.ci.lo);
  EXPECT_EQ(x.ci.hi, y.ci.hi);
}

TEST(BatchReproducibility, ConstructionPlanAcrossThreadCounts) {
  const local::Instance inst = core::consecutive_ring(48);
  const algo::UniformRandomColoring coloring(3);
  const lang::ProperColoring base(3);
  const lang::EpsSlack slack(base, 0.65);
  auto plan = [&]() {
    return local::construction_plan(
        "repro", inst, coloring,
        [&slack](const local::Instance& instance,
                 const local::Labeling& y) {
          return slack.contains(instance, y);
        },
        2000, 97);
  };
  BatchRunner sequential;
  const stats::Estimate reference = sequential.run(plan());
  for (unsigned threads : {1u, 2u, 8u}) {
    const stats::ThreadPool pool(threads);
    BatchRunner runner(&pool);
    const stats::Estimate parallel = runner.run(plan());
    expect_identical(reference, parallel);
    // Re-running on the same (now warm) runner must also be identical.
    expect_identical(reference, runner.run(plan()));
  }
}

TEST(BatchReproducibility, ConstructDecidePlanAcrossThreadCounts) {
  const local::Instance inst = core::consecutive_ring(30);
  const algo::UniformRandomColoring coloring(3);
  const lang::ProperColoring base(3);
  const decide::ResilientDecider decider(base, 1);
  auto plan = [&]() {
    return decide::construct_then_decide_plan("repro-decide", inst, coloring,
                                              decider, 1500, 41);
  };
  BatchRunner sequential;
  const stats::Estimate reference = sequential.run(plan());
  for (unsigned threads : {1u, 2u, 8u}) {
    const stats::ThreadPool pool(threads);
    BatchRunner runner(&pool);
    expect_identical(reference, runner.run(plan()));
  }
}

TEST(BatchReproducibility, ModesAgreeInDistributionThroughPlans) {
  // The same base seed must give the SAME estimate whichever execution
  // mode runs the construction — the coins are identity-addressed, so the
  // mode cannot leak into the outcome.
  const local::Instance inst = core::consecutive_ring(24);
  const algo::UniformRandomColoring coloring(3);
  const lang::ProperColoring base(3);
  const lang::EpsSlack slack(base, 0.65);
  auto plan_for = [&](ExecMode mode) {
    return local::construction_plan(
        "mode-repro", inst, coloring,
        [&slack](const local::Instance& instance,
                 const local::Labeling& y) {
          return slack.contains(instance, y);
        },
        500, 7, mode);
  };
  const stats::ThreadPool pool(4);
  BatchRunner runner(&pool);
  const stats::Estimate balls = runner.run(plan_for(ExecMode::kBalls));
  expect_identical(balls, runner.run(plan_for(ExecMode::kMessages)));
  expect_identical(balls, runner.run(plan_for(ExecMode::kTwoPhase)));
}

// -- telemetry: deterministic counters across thread counts ----------------

void expect_telemetry_identical(const local::Telemetry& x,
                                const local::Telemetry& y) {
  EXPECT_EQ(x.messages_sent, y.messages_sent);
  EXPECT_EQ(x.words_sent, y.words_sent);
  EXPECT_EQ(x.rounds_executed, y.rounds_executed);
  EXPECT_EQ(x.ball_expansions, y.ball_expansions);
  EXPECT_TRUE(x.deterministic_equal(y));
}

TEST(BatchTelemetry, EngineCountersIdenticalAcrossThreadCounts) {
  // kMessages runs the flooding simulation natively through the engine:
  // every counter is MEASURED (non-silent messages, their words, rounds).
  // A radius-2 algorithm actually floods; radius-0 ones measure zero.
  const local::Instance inst = core::consecutive_ring(24);
  const CenterRank rank2(2);
  const local::AsRandomized randomized(rank2);
  auto plan = [&]() {
    return local::construction_plan(
        "telemetry-engine", inst, randomized,
        [](const local::Instance&, const local::Labeling& y) {
          return y[0] % 2 == 0;
        },
        300, 19, ExecMode::kMessages);
  };
  BatchRunner sequential;
  sequential.run(plan());
  const local::Telemetry reference = sequential.last_telemetry();
  EXPECT_GT(reference.messages_sent, 0u);
  EXPECT_GT(reference.words_sent, 0u);
  EXPECT_GT(reference.rounds_executed, 0u);
  for (unsigned threads : {1u, 2u, 8u}) {
    const stats::ThreadPool pool(threads);
    BatchRunner runner(&pool);
    runner.run(plan());
    expect_telemetry_identical(reference, runner.last_telemetry());
    // A warm re-run must report the SAME batch telemetry (per-batch
    // reset, not a cross-run accumulation).
    runner.run(plan());
    expect_telemetry_identical(reference, runner.last_telemetry());
  }
}

TEST(BatchTelemetry, BallModeModeledCountersIdenticalAcrossThreadCounts) {
  // kBalls never touches the engine: the counters are the MODELED
  // simulation-theorem charge, still a pure function of the trial set.
  const local::Instance inst = core::consecutive_ring(30);
  const algo::UniformRandomColoring coloring(3);
  const lang::ProperColoring base(3);
  const decide::ResilientDecider decider(base, 1);
  auto plan = [&]() {
    return decide::construct_then_decide_plan(
        "telemetry-balls", inst, coloring, decider, 400, 23);
  };
  BatchRunner sequential;
  sequential.run(plan());
  const local::Telemetry reference = sequential.last_telemetry();
  EXPECT_GT(reference.messages_sent, 0u);
  EXPECT_GT(reference.words_sent, 0u);
  EXPECT_GT(reference.rounds_executed, 0u);
  EXPECT_GT(reference.ball_expansions, 0u);
  for (unsigned threads : {1u, 2u, 8u}) {
    const stats::ThreadPool pool(threads);
    BatchRunner runner(&pool);
    runner.run(plan());
    expect_telemetry_identical(reference, runner.last_telemetry());
  }
}

TEST(BatchTelemetry, ShardTelemetriesSumToTheUnshardedRun) {
  const local::Instance inst = core::consecutive_ring(18);
  const CenterRank rank2(2);
  const local::AsRandomized randomized(rank2);
  auto plan = [&]() {
    return local::construction_plan(
        "telemetry-shards", inst, randomized,
        [](const local::Instance&, const local::Labeling& y) {
          return y[0] % 2 == 0;
        },
        101, 31, ExecMode::kMessages);
  };
  BatchRunner runner;
  const local::ShardTally full = runner.run_shard(plan(), {0, 101});
  EXPECT_GT(full.telemetry.messages_sent, 0u);
  local::ShardTally merged;
  for (unsigned s = 0; s < 3; ++s) {
    merged.merge(runner.run_shard(plan(), local::shard_range(101, s, 3)));
  }
  expect_telemetry_identical(full.telemetry, merged.telemetry);
}

// The runner's one batch cut, for vector batches (one part) and the trial
// batches of a parted plan: near-equal consecutive batches tiling the
// range, the fewest of at most `cap` trials whose count is a multiple of
// ceil(workers / parts), and never more batches than trials.
TEST(BatchCut, TilesTheRangeInTheFewestBatchesThatCoverEveryWorker) {
  struct Case {
    local::TrialRange range;
    std::uint64_t cap, workers, parts, batches;
  };
  for (const Case& c : {
           Case{{0, 4}, 16, 4, 16, 1},   // 16 parts keep 4 workers busy
           Case{{0, 8}, 16, 4, 1, 4},    // one part: one batch per worker
           Case{{0, 10}, 16, 4, 2, 2},   // two parts: two batches
           Case{{0, 2}, 16, 4, 4, 1},
           Case{{5, 6}, 16, 4, 16, 1},   // a lone trial
           Case{{0, 24}, 1, 4, 1, 24},   // width 1: a batch per trial
           Case{{0, 100}, 32, 4, 1, 4},  // vector batches of 25
           Case{{0, 301}, 32, 3, 1, 12},
           Case{{0, 3}, 32, 8, 1, 3},
           Case{{7, 7}, 16, 4, 1, 0},
       }) {
    SCOPED_TRACE(testing::Message()
                 << "[" << c.range.begin << ", " << c.range.end << "), cap "
                 << c.cap << ", " << c.workers << " workers, " << c.parts
                 << " parts");
    const local::TrialBatches batches =
        local::cut_trials(c.range, c.cap, c.workers, c.parts);
    EXPECT_EQ(batches.count, c.batches);
    std::uint64_t next = c.range.begin;
    std::uint64_t shortest = c.cap;
    std::uint64_t longest = 0;
    for (std::uint64_t b = 0; b < batches.count; ++b) {
      const local::TrialRange batch = batches[b];
      EXPECT_EQ(batch.begin, next);
      next = batch.end;
      shortest = std::min(shortest, batch.count());
      longest = std::max(longest, batch.count());
    }
    EXPECT_EQ(next, c.range.end);
    if (batches.count > 0) {
      EXPECT_GE(shortest, 1u);
      EXPECT_LE(longest, c.cap);
      EXPECT_LE(longest - shortest, 1u);
    }
  }
}

TEST(BatchReproducibility, MeanAndCountPlansAcrossThreadCounts) {
  const local::Instance inst = core::consecutive_ring(36);
  const algo::UniformRandomColoring coloring(3);
  const lang::ProperColoring base(3);
  auto mean_plan = [&]() {
    return local::construction_value_plan(
        "mean-repro", inst, coloring,
        [&base](const local::Instance& instance, const local::Labeling& y) {
          return static_cast<double>(base.count_bad_balls(instance, y));
        },
        800, 11);
  };
  auto count_plan = [&]() {
    return local::custom_count_plan(
        "count-repro", 800, 11, 2,
        [&](const local::TrialEnv& env, std::span<std::uint64_t> slots) {
          local::Labeling& y = env.arena->labeling();
          local::run_ball_algorithm_into(inst, coloring,
                                         env.construction_coins(), y);
          const std::size_t bad = base.count_bad_balls(inst, y);
          slots[0] += bad;
          if (bad * 2 > inst.node_count()) ++slots[1];
        });
  };
  BatchRunner sequential;
  const stats::MeanEstimate mean_ref = sequential.run_mean(mean_plan());
  const auto counts_ref = sequential.run_counts(count_plan());
  for (unsigned threads : {1u, 2u, 8u}) {
    const stats::ThreadPool pool(threads);
    BatchRunner runner(&pool);
    const stats::MeanEstimate mean = runner.run_mean(mean_plan());
    EXPECT_EQ(mean_ref.mean, mean.mean);
    EXPECT_EQ(mean_ref.stddev, mean.stddev);
    EXPECT_EQ(counts_ref, runner.run_counts(count_plan()));
  }
}

}  // namespace
}  // namespace lnc
