// Property tests for the scenario stack (ISSUE 4 satellite):
//
//  * randomized ScenarioSpecs drawn over the registries — including the
//    fault registry (ISSUE 9) — (seeded, no wall-clock) either compile
//    and run, or fail validation with a non-empty human-readable
//    diagnostic — never crash;
//  * shard-merge identity: for success, value, counter, and faulty
//    workloads, a 2-way and an uneven 3-way shard partition
//    (JSON-round-tripped, as the cross-process workflow does) merge back
//    to the unsharded run BIT FOR BIT, at 1, 2, and 8 worker threads.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "rand/splitmix.h"
#include "scenario/presets.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "stats/threadpool.h"

namespace {

using namespace lnc;
using scenario::ScenarioSpec;

// ------------------------------------------------------ spec generation --

template <typename Entry>
std::vector<std::string> registered_names(
    const scenario::Registry<Entry>& registry) {
  std::vector<std::string> names;
  for (const Entry* entry : registry.all()) names.push_back(entry->name);
  return names;
}

/// Mostly a registered name, occasionally a bogus one — the generator
/// exercises both the compile path and the diagnostic path, weighted so
/// both accumulate a meaningful sample.
std::string pick_name(rand::SplitMix64& rng,
                      const std::vector<std::string>& pool,
                      const char* bogus) {
  if (rng.next_below(10) == 0) return bogus;
  return pool[rng.next_below(pool.size())];
}

template <typename T>
const T& pick(rand::SplitMix64& rng, const std::vector<T>& pool) {
  return pool[rng.next_below(pool.size())];
}

/// One random spec. Sizes and trial counts stay tiny so a valid draw
/// compiles and runs in milliseconds.
ScenarioSpec random_spec(rand::SplitMix64& rng) {
  static const std::vector<std::string> topologies =
      registered_names(scenario::topologies());
  static const std::vector<std::string> languages =
      registered_names(scenario::languages());
  static const std::vector<std::string> constructions =
      registered_names(scenario::constructions());
  static const std::vector<std::string> deciders =
      registered_names(scenario::deciders());
  static const std::vector<std::string> statistics =
      registered_names(scenario::statistics());
  // Shared-namespace keys several components declare, plus a foreign one.
  // ("p" stays out: the resilient decider constrains it to a fault-budget-
  // dependent interval that static range validation cannot express.)
  static const std::vector<std::string> param_keys = {
      "colors", "faults",        "eps",   "degree",    "max-degree",
      "count",  "fixup-rounds",  "radius", "edge-prob", "frobnicate"};

  ScenarioSpec spec;
  spec.name = "prop-" + std::to_string(rng.next());
  spec.topology = pick_name(rng, topologies, "no-such-topology");
  spec.language = pick_name(rng, languages, "no-such-language");
  spec.construction = pick_name(rng, constructions, "no-such-construction");
  spec.decider = pick_name(rng, deciders, "no-such-decider");
  switch (rng.next_below(3)) {
    case 0:
      spec.workload = local::WorkloadKind::kSuccess;
      // Occasionally a statistic on a success workload (must diagnose).
      if (rng.next_below(8) == 0) spec.statistic = pick(rng, statistics);
      break;
    case 1:
      spec.workload = local::WorkloadKind::kValue;
      break;
    default:
      spec.workload = local::WorkloadKind::kCounter;
      break;
  }
  if (spec.workload != local::WorkloadKind::kSuccess) {
    // Value/counter workloads need the exact pseudo-decider; keep a
    // minority of other deciders to exercise that diagnostic.
    if (rng.next_below(4) != 0) spec.decider = "exact";
    // Mostly a real statistic, sometimes bogus, sometimes missing.
    if (rng.next_below(6) != 0) {
      spec.statistic =
          pick_name(rng, statistics, "no-such-statistic");
    }
  }
  const std::size_t param_count = rng.next_below(3);
  for (std::size_t i = 0; i < param_count; ++i) {
    spec.params[pick(rng, param_keys)] =
        static_cast<double>(1 + rng.next_below(4));
  }
  // Half the draws carry a fault block: mostly a registered model,
  // occasionally a bogus name or a parameter the model's schema does not
  // declare / does not accept — both sides of the sixth registry's
  // diagnostics. (crash-round=0 is below its declared minimum, and every
  // key is foreign to some model, so rejections accumulate too.)
  static const std::vector<std::string> faults =
      registered_names(scenario::faults());
  if (rng.next_below(2) == 0) {
    spec.fault = pick_name(rng, faults, "no-such-fault");
    if (rng.next_below(3) == 0) {
      static const std::vector<std::string> fault_keys = {
          "p-loss", "p-crash", "crash-round", "p-churn", "frobnicate"};
      spec.fault_params[pick(rng, fault_keys)] =
          0.05 * static_cast<double>(rng.next_below(4));
    }
  }
  spec.n_grid = {8 + rng.next_below(25)};
  if (rng.next_below(16) == 0) spec.n_grid.clear();  // must diagnose
  spec.trials = 1 + rng.next_below(2);
  spec.base_seed = rng.next();
  spec.success_on_accept = rng.next_below(2) == 0;
  return spec;
}

TEST(SweepProperty, RandomSpecsCompileOrDiagnose) {
  rand::SplitMix64 rng(20260728);  // fixed seed: fully deterministic
  int compiled_count = 0;
  int rejected_count = 0;
  for (int draw = 0; draw < 200; ++draw) {
    const ScenarioSpec spec = random_spec(rng);
    const std::string error = scenario::validate(spec);
    if (!error.empty()) {
      // Every rejection is an actual diagnostic, not a silent failure.
      EXPECT_GT(error.size(), 10u) << "draw " << draw;
      ++rejected_count;
      continue;
    }
    const scenario::CompiledScenario compiled = scenario::compile(spec);
    const scenario::SweepResult result = scenario::run_sweep(compiled);
    ASSERT_EQ(result.rows.size(), spec.n_grid.size()) << "draw " << draw;
    EXPECT_EQ(result.workload, spec.workload);
    for (const scenario::SweepRow& row : result.rows) {
      EXPECT_EQ(row.tally.trials, spec.trials) << "draw " << draw;
      if (spec.workload == local::WorkloadKind::kCounter) {
        EXPECT_EQ(row.tally.counts.size(), 1u) << "draw " << draw;
      }
    }
    ++compiled_count;
  }
  // The generator must exercise both sides substantially.
  EXPECT_GT(compiled_count, 20);
  EXPECT_GT(rejected_count, 20);
}

// ------------------------------------------------------ merge identity --

/// Workload-aware bit-identity assertion between two complete results.
void expect_identical(const scenario::SweepResult& want,
                      const scenario::SweepResult& got,
                      const std::string& context) {
  ASSERT_EQ(want.rows.size(), got.rows.size()) << context;
  EXPECT_EQ(want.workload, got.workload) << context;
  for (std::size_t i = 0; i < want.rows.size(); ++i) {
    const scenario::SweepRow& w = want.rows[i];
    const scenario::SweepRow& g = got.rows[i];
    EXPECT_EQ(w.tally.trials, g.tally.trials) << context;
    EXPECT_EQ(w.tally.successes, g.tally.successes) << context;
    EXPECT_TRUE(w.tally.value_sum == g.tally.value_sum) << context;
    EXPECT_TRUE(w.tally.value_sum_sq == g.tally.value_sum_sq) << context;
    EXPECT_EQ(w.tally.counts, g.tally.counts) << context;
    EXPECT_TRUE(w.tally.telemetry.deterministic_equal(g.tally.telemetry))
        << context;
    switch (want.workload) {
      case local::WorkloadKind::kSuccess: {
        const stats::Estimate a = scenario::row_estimate(w);
        const stats::Estimate b = scenario::row_estimate(g);
        EXPECT_EQ(a.p_hat, b.p_hat) << context;
        EXPECT_EQ(a.ci.lo, b.ci.lo) << context;
        EXPECT_EQ(a.ci.hi, b.ci.hi) << context;
        break;
      }
      case local::WorkloadKind::kValue: {
        const stats::MeanEstimate a = scenario::row_mean(w);
        const stats::MeanEstimate b = scenario::row_mean(g);
        EXPECT_EQ(a.mean, b.mean) << context;
        EXPECT_EQ(a.stddev, b.stddev) << context;
        break;
      }
      case local::WorkloadKind::kCounter:
        break;  // counts compared above
    }
  }
}

/// Runs `shard_count` shards (each JSON-round-tripped) and merges.
scenario::SweepResult sharded_merge(const scenario::CompiledScenario& compiled,
                                    unsigned shard_count,
                                    const stats::ThreadPool* pool) {
  std::vector<scenario::SweepResult> shards;
  for (unsigned s = 0; s < shard_count; ++s) {
    scenario::SweepOptions options;
    options.trial_range =
        local::shard_range(compiled.spec().trials, s, shard_count);
    options.pool = pool;
    std::ostringstream os;
    scenario::write_json(os, scenario::run_sweep(compiled, options));
    std::vector<std::string> warnings;
    shards.push_back(scenario::sweep_from_json(os.str(), &warnings));
    EXPECT_TRUE(warnings.empty()) << warnings[0];
  }
  EXPECT_EQ(scenario::can_merge_trial_ranges(shards), "");
  return scenario::merge_trial_ranges(shards);
}

/// A preset shrunk to one grid point and an uneven trial count (10 over
/// 3 shards splits 4/3/3 — the uneven case).
ScenarioSpec shrunk_preset(const std::string& name) {
  const ScenarioSpec* preset = scenario::find_preset(name);
  EXPECT_NE(preset, nullptr) << name;
  ScenarioSpec spec = *preset;
  spec.n_grid = {spec.n_grid.front()};
  spec.trials = 10;
  return spec;
}

TEST(SweepProperty, ShardMergesBitIdenticalForEveryWorkloadAndThreadCount) {
  // One preset per workload kind — success, value (exact mean-merge),
  // counter (exact integer totals) — plus the three fault presets, whose
  // tallies AND fault-telemetry counters must obey the same contract.
  const std::vector<std::string> preset_names = {
      "ring-amos-yes",  "luby-mis-rounds", "ring-amos-words",
      "ring-amos-drop", "luby-mis-crash",  "rand-matching-churn"};
  for (const std::string& name : preset_names) {
    const ScenarioSpec spec = shrunk_preset(name);
    const scenario::CompiledScenario compiled = scenario::compile(spec);

    // The 1-thread unsharded run anchors every comparison.
    const scenario::SweepResult reference = scenario::run_sweep(compiled);
    for (const unsigned threads : {1u, 2u, 8u}) {
      std::optional<stats::ThreadPool> pool;
      const stats::ThreadPool* pool_ptr = nullptr;
      if (threads > 1) {
        pool.emplace(threads);
        pool_ptr = &*pool;
      }
      scenario::SweepOptions whole;
      whole.pool = pool_ptr;
      expect_identical(reference, scenario::run_sweep(compiled, whole),
                       name + " unsharded @" + std::to_string(threads));
      expect_identical(reference, sharded_merge(compiled, 2, pool_ptr),
                       name + " 2-way @" + std::to_string(threads));
      // 10 trials over 3 shards: 4/3/3 — the uneven partition.
      expect_identical(reference, sharded_merge(compiled, 3, pool_ptr),
                       name + " uneven 3-way @" + std::to_string(threads));
    }
  }
}

TEST(SweepProperty, ValueAndCounterPresetsValidateAndAreRegistered) {
  // The ISSUE-4 presets exist, carry the advertised workloads, and the
  // whole preset catalogue still validates.
  const scenario::ScenarioSpec* value_preset =
      scenario::find_preset("luby-mis-rounds");
  ASSERT_NE(value_preset, nullptr);
  EXPECT_EQ(value_preset->workload, local::WorkloadKind::kValue);
  EXPECT_EQ(value_preset->statistic, "rounds");
  const scenario::ScenarioSpec* counter_preset =
      scenario::find_preset("ring-amos-words");
  ASSERT_NE(counter_preset, nullptr);
  EXPECT_EQ(counter_preset->workload, local::WorkloadKind::kCounter);
  for (const ScenarioSpec& preset : scenario::preset_scenarios()) {
    EXPECT_EQ(scenario::validate(preset), "") << preset.name;
  }
}

}  // namespace
