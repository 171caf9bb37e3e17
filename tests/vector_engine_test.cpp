// Vector-engine backend tests: the acceptance gate of the trial-vectorized
// SoA backend. Every backend (naive / batched / vectorized), every thread
// count, every shard partition, and every OptimizationConfig toggle must
// produce bit-identical tallies, exact sums, counter slots, and
// deterministic telemetry — forcing a backend is a performance choice,
// never a results choice.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "algo/luby_mis.h"
#include "graph/generators.h"
#include "ident/identity.h"
#include "local/batch_runner.h"
#include "local/vector_engine.h"
#include "obs/trace.h"
#include "rand/coins.h"
#include "scenario/presets.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "stats/montecarlo.h"
#include "stats/threadpool.h"

namespace {

using namespace lnc;
using local::OptimizationConfig;
using Backend = local::OptimizationConfig::Backend;

scenario::ScenarioSpec shrunk_preset(const std::string& name,
                                     std::uint64_t trials) {
  const scenario::ScenarioSpec* preset = scenario::find_preset(name);
  EXPECT_NE(preset, nullptr) << name;
  scenario::ScenarioSpec spec = *preset;
  spec.trials = trials;
  spec.n_grid = {spec.n_grid.front()};
  return spec;
}

scenario::SweepResult run_with(const scenario::ScenarioSpec& base,
                               Backend backend, unsigned threads,
                               unsigned shard = 0, unsigned shard_count = 1) {
  scenario::ScenarioSpec spec = base;
  spec.backend = backend;
  EXPECT_EQ(scenario::validate(spec), "");
  const scenario::CompiledScenario compiled = scenario::compile(spec);
  scenario::SweepOptions options;
  options.trial_range = local::shard_range(spec.trials, shard, shard_count);
  std::optional<stats::ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);
  options.pool = pool ? &*pool : nullptr;
  return scenario::run_sweep(compiled, options);
}

void expect_tallies_identical(const local::ShardTally& a,
                              const local::ShardTally& b,
                              const std::string& what) {
  EXPECT_EQ(a.trials, b.trials) << what;
  EXPECT_EQ(a.successes, b.successes) << what;
  EXPECT_TRUE(a.value_sum == b.value_sum)
      << what << ": " << a.value_sum.to_hex() << " vs " << b.value_sum.to_hex();
  EXPECT_TRUE(a.value_sum_sq == b.value_sum_sq) << what;
  EXPECT_EQ(a.counts, b.counts) << what;
  EXPECT_TRUE(a.telemetry.deterministic_equal(b.telemetry))
      << what << ": msgs " << a.telemetry.messages_sent << " vs "
      << b.telemetry.messages_sent << ", words " << a.telemetry.words_sent
      << " vs " << b.telemetry.words_sent << ", rounds "
      << a.telemetry.rounds_executed << " vs " << b.telemetry.rounds_executed;
}

void expect_results_identical(const scenario::SweepResult& a,
                              const scenario::SweepResult& b,
                              const std::string& what) {
  ASSERT_EQ(a.rows.size(), b.rows.size()) << what;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    expect_tallies_identical(a.rows[i].tally, b.rows[i].tally,
                             what + " row " + std::to_string(i));
  }
}

// Vectorizable presets covering all three vector programs and all three
// workloads (the counter cases are the luby value preset re-declared as
// counters, since no stock counter preset uses a vectorizable engine; the
// `messages` one reads the trial's telemetry delta).
std::vector<scenario::ScenarioSpec> vectorizable_specs() {
  std::vector<scenario::ScenarioSpec> specs;
  specs.push_back(shrunk_preset("gnp-weak-coloring", 40));     // success
  specs.push_back(shrunk_preset("tree-matching", 40));         // success
  specs.push_back(shrunk_preset("luby-mis-rounds", 40));       // value
  specs.push_back(shrunk_preset("rand-matching-rounds", 40));  // value
  scenario::ScenarioSpec counter = shrunk_preset("luby-mis-rounds", 40);
  counter.name = "luby-mis-rounds-counter";
  counter.workload = local::WorkloadKind::kCounter;
  specs.push_back(counter);
  scenario::ScenarioSpec messages = counter;
  messages.name = "luby-mis-rounds-messages";
  messages.statistic = "messages";
  specs.push_back(messages);
  return specs;
}

TEST(VectorEngine, BackendsAreBitIdenticalAcrossThreadCounts) {
  for (const scenario::ScenarioSpec& spec : vectorizable_specs()) {
    const scenario::SweepResult baseline = run_with(spec, Backend::kNaive, 1);
    for (const Backend backend :
         {Backend::kNaive, Backend::kBatched, Backend::kVectorized}) {
      for (const unsigned threads : {1u, 2u, 8u}) {
        if (backend == Backend::kNaive && threads == 1) continue;
        expect_results_identical(
            baseline, run_with(spec, backend, threads),
            spec.name + " backend=" + local::to_string(backend) +
                " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(VectorEngine, UnevenShardMergeReproducesUnshardedRun) {
  // 40 trials over 3 shards split 14/13/13 — the batch boundaries inside
  // each shard land differently than in the unsharded run, so this pins
  // down that per-trial outcomes are pure in the trial index, not in the
  // batch layout.
  const scenario::ScenarioSpec spec = shrunk_preset("luby-mis-rounds", 40);
  const scenario::SweepResult whole = run_with(spec, Backend::kVectorized, 2);
  std::vector<scenario::SweepResult> shards;
  for (unsigned s = 0; s < 3; ++s) {
    shards.push_back(run_with(spec, Backend::kVectorized, 2, s, 3));
  }
  expect_results_identical(whole, scenario::merge_trial_ranges(shards),
                           "3-way vectorized shard merge");

  // Mixed-backend shards must merge to the same numbers too — that is
  // the contract that makes merge_sweep_files' backend mismatch a
  // warning rather than an error.
  std::vector<scenario::SweepResult> mixed;
  mixed.push_back(run_with(spec, Backend::kNaive, 1, 0, 3));
  mixed.push_back(run_with(spec, Backend::kBatched, 2, 1, 3));
  mixed.push_back(run_with(spec, Backend::kVectorized, 8, 2, 3));
  scenario::SweepResult merged = scenario::merge_trial_ranges(mixed);
  expect_results_identical(whole, merged, "mixed-backend shard merge");
}

TEST(VectorEngine, BatchWidthsPreserveBitIdentity) {
  // The batch width changes HOW trials are grouped, never WHAT they
  // compute: single-trial and ragged batches must reproduce the default
  // configuration exactly.
  const scenario::ScenarioSpec spec =
      shrunk_preset("rand-matching-rounds", 40);
  scenario::ScenarioSpec forced = spec;
  forced.backend = Backend::kVectorized;
  const scenario::CompiledScenario compiled = scenario::compile(forced);
  ASSERT_EQ(compiled.points().size(), 1u);
  const local::ExperimentPlan& base_plan = compiled.points()[0].plan;
  ASSERT_TRUE(base_plan.vector.engaged());

  local::BatchRunner runner(nullptr);
  const local::TrialRange range{0, forced.trials};
  const local::ShardTally baseline = runner.run_shard(base_plan, range);

  const auto variant = [&](const char* what, auto&& mutate) {
    local::ExperimentPlan plan = base_plan;
    mutate(plan.optimization);
    expect_tallies_identical(baseline, runner.run_shard(plan, range), what);
  };
  variant("batch_trials=1",
          [](OptimizationConfig& c) { c.batch_trials = 1; });
  variant("batch_trials=7",
          [](OptimizationConfig& c) { c.batch_trials = 7; });
  variant("batch_trials=3", [](OptimizationConfig& c) { c.batch_trials = 3; });

  // On a pool the batch count rounds up to a multiple of the workers.
  // Under a cap of 3 the 40 trials run as 15 or 16 batches of 2 or 3 on
  // every pool size; under 64, as one batch per worker.
  for (const unsigned workers : {3u, 4u, 8u}) {
    const stats::ThreadPool pool(workers);
    local::BatchRunner pooled(&pool);
    for (const std::uint64_t cap : {std::uint64_t{3}, std::uint64_t{64}}) {
      local::ExperimentPlan plan = base_plan;
      plan.optimization.batch_trials = cap;
      expect_tallies_identical(baseline, pooled.run_shard(plan, range),
                               "workers=" + std::to_string(workers) +
                                   " batch_trials=" + std::to_string(cap));
    }
  }

  // 300 trials under a 64-trial cap on 4 workers: five batches would fit
  // the cap, and the runner rounds up to eight batches of 37 or 38.
  scenario::ScenarioSpec spec300 = forced;
  spec300.trials = 300;
  const scenario::CompiledScenario wide = scenario::compile(spec300);
  local::ExperimentPlan plan300 = wide.points()[0].plan;
  plan300.optimization.batch_trials = 64;
  const stats::ThreadPool pool(4);
  local::BatchRunner pooled(&pool);
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  recorder.clear();
  recorder.enable();
  const local::ShardTally traced = pooled.run_shard(plan300, {0, 300});
  recorder.disable();
  const std::string trace = recorder.to_json();
  recorder.clear();
  std::size_t batches = 0;
  const std::string span = "\"name\": \"batch\"";
  for (std::size_t at = trace.find(span); at != std::string::npos;
       at = trace.find(span, at + 1)) {
    ++batches;
  }
  EXPECT_EQ(batches, 8u);
  expect_tallies_identical(runner.run_shard(plan300, {0, 300}), traced,
                           "300 trials, 8 batches vs 5");
}

TEST(VectorEngine, AutomaticConfigPicksSaneBackends) {
  EXPECT_EQ(OptimizationConfig::automatic(64, 1, 2.0).backend,
            Backend::kBatched);
  EXPECT_EQ(OptimizationConfig::automatic(64, 4, 2.0).backend,
            Backend::kBatched);
  const OptimizationConfig big = OptimizationConfig::automatic(64, 1000, 3.0);
  EXPECT_EQ(big.backend, Backend::kVectorized);
  EXPECT_GE(big.batch_trials, 4u);
  EXPECT_LE(big.batch_trials, 64u);
  // Tiny vectorized runs never allocate batches wider than the trial count.
  EXPECT_LE(OptimizationConfig::automatic(64, 10, 3.0).batch_trials, 10u);
  // Huge instances drive the batch width down to the floor, never to zero.
  EXPECT_EQ(OptimizationConfig::automatic(1u << 22, 1000, 8.0).batch_trials,
            4u);
}

TEST(VectorEngine, BackendRoundTripsThroughStrings) {
  for (const Backend backend : {Backend::kAuto, Backend::kNaive,
                                Backend::kBatched, Backend::kVectorized}) {
    const auto parsed = local::backend_from_string(local::to_string(backend));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, backend);
  }
  EXPECT_FALSE(local::backend_from_string("simd").has_value());
  EXPECT_FALSE(local::backend_from_string("").has_value());
}

TEST(VectorEngine, DirectBatchMatchesScalarEngineTrialForTrial) {
  // The lowest-level form of the contract: run_vector_batch over a span of
  // construction-coin keys reproduces run_engine per trial — labelings,
  // executed rounds, and the deterministic telemetry delta.
  const local::Instance inst = local::make_instance(
      graph::cycle(48), ident::random_permutation(48, 11));
  const algo::LubyMisFactory factory;
  constexpr std::uint64_t kSeed = 1234;
  constexpr std::uint32_t kTrials = 9;  // ragged vs the batch width below

  std::vector<local::Labeling> scalar_outputs;
  std::vector<int> scalar_rounds;
  std::vector<local::Telemetry> scalar_deltas;
  std::vector<std::uint64_t> keys;
  for (std::uint32_t t = 0; t < kTrials; ++t) {
    const rand::PhiloxCoins coins(stats::trial_seed(kSeed, t),
                                  rand::Stream::kConstruction);
    keys.push_back(coins.key());
    local::EngineOptions options;
    options.coins = &coins;
    const local::EngineResult result = run_engine(inst, factory, options);
    ASSERT_TRUE(result.completed);
    scalar_outputs.push_back(result.output);
    scalar_rounds.push_back(result.rounds);
    scalar_deltas.push_back(result.telemetry);
  }

  local::VectorScratch scratch;
  std::uint32_t seen = 0;
  // Two half-batches through the same scratch: the second run exercises
  // the program-recycling path on warm buffers.
  for (const auto& slice :
       {std::span<const std::uint64_t>(keys.data(), 5),
        std::span<const std::uint64_t>(keys.data() + 5, kTrials - 5)}) {
    const std::uint32_t base = seen;
    local::run_vector_batch(
        inst, factory, slice, scratch, nullptr,
        [&](std::uint32_t trial, const local::Labeling& output, int rounds,
            const local::Telemetry& delta) {
          const std::uint32_t global = base + trial;
          EXPECT_EQ(output, scalar_outputs[global]) << "trial " << global;
          EXPECT_EQ(rounds, scalar_rounds[global]) << "trial " << global;
          EXPECT_TRUE(delta.deterministic_equal(scalar_deltas[global]))
              << "trial " << global;
          ++seen;
        });
  }
  EXPECT_EQ(seen, kTrials);
}

}  // namespace
