// Scenario subsystem tests: registry resolution, preset health, shard
// partition/merge bit-identity (the ROADMAP "Sharded batch execution"
// contract), JSON spec round trips, instance interning, and program
// recycling.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/weak_color_mc.h"
#include "graph/ball.h"
#include "graph/generators.h"
#include "ident/identity.h"
#include "local/engine.h"
#include "rand/coins.h"
#include "scenario/presets.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/spec_json.h"
#include "scenario/sweep.h"

namespace {

using namespace lnc;
using scenario::ScenarioSpec;

ScenarioSpec shrunk(const ScenarioSpec& preset, std::uint64_t trials) {
  ScenarioSpec spec = preset;
  spec.trials = trials;
  spec.n_grid = {preset.n_grid.front()};
  return spec;
}

/// Options running shard `shard` of `shard_count` of a compiled scenario:
/// a shard is the trial range local::shard_range assigns it.
scenario::SweepOptions shard_of(const scenario::CompiledScenario& compiled,
                                unsigned shard, unsigned shard_count) {
  scenario::SweepOptions options;
  options.trial_range =
      local::shard_range(compiled.spec().trials, shard, shard_count);
  return options;
}

TEST(Registry, CatalogueHasTheAdvertisedSurface) {
  EXPECT_GE(scenario::topologies().all().size(), 8u);
  EXPECT_GE(scenario::languages().all().size(), 8u);
  EXPECT_GE(scenario::constructions().all().size(), 6u);
  EXPECT_GE(scenario::deciders().all().size(), 5u);
  for (const char* decider :
       {"exact", "lcl", "amos", "resilient", "slack", "local-count"}) {
    EXPECT_NE(scenario::deciders().find(decider), nullptr) << decider;
  }
}

TEST(Registry, MergedParamsFillDefaultsAndKeepOverrides) {
  const scenario::ParamSchema schema = {{"colors", 3, ""}, {"eps", 0.5, ""}};
  const scenario::ParamMap merged =
      scenario::merged_params(schema, {{"eps", 0.25}, {"other", 9}});
  EXPECT_EQ(scenario::param(merged, "colors"), 3);
  EXPECT_EQ(scenario::param(merged, "eps"), 0.25);
  EXPECT_EQ(merged.count("other"), 0u);  // foreign keys are not adopted
}

TEST(Registry, InternedInstancesAreShared) {
  const auto a = scenario::interned_instance("ring", 24);
  const auto b = scenario::interned_instance("ring", 24);
  const auto c = scenario::interned_instance("ring", 25);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(a->node_count(), 24u);
}

// luby-ball's K-phase simulation over the whole ball without the early
// exit: every phase runs even after the center is decided. The registered
// algorithm simulates only the center's cone and stops at a decided
// center; it must compute the same function. A non-null `decided_phase`
// receives the phase that decided the center, or -1.
local::Label full_luby_ball(const local::View& view,
                            const rand::CoinProvider& coins, int phases,
                            int* decided_phase = nullptr) {
  const graph::BallView& ball = *view.ball;
  const graph::NodeId size = ball.size();
  std::vector<std::uint8_t> state(size, 0);
  std::vector<std::uint8_t> wins(size, 0);
  std::vector<std::uint64_t> priority(size, 0);
  if (decided_phase != nullptr) *decided_phase = -1;
  for (int phase = 0; phase < phases; ++phase) {
    for (graph::NodeId v = 0; v < size; ++v) {
      if (state[v] == 0) {
        priority[v] =
            coins.draw(view.identity(v), static_cast<std::uint64_t>(phase));
      }
    }
    for (graph::NodeId v = 0; v < size; ++v) {
      wins[v] = 0;
      if (state[v] != 0) continue;
      bool best = true;
      for (const graph::NodeId w : ball.neighbors(v)) {
        if (state[w] == 0 &&
            (priority[w] < priority[v] ||
             (priority[w] == priority[v] &&
              view.identity(w) < view.identity(v)))) {
          best = false;
        }
      }
      wins[v] = best ? 1 : 0;
    }
    for (graph::NodeId v = 0; v < size; ++v) {
      if (wins[v] == 0) continue;
      state[v] = 1;
      for (const graph::NodeId w : ball.neighbors(v)) {
        if (state[w] == 0) state[w] = 2;
      }
    }
    if (decided_phase != nullptr && *decided_phase < 0 && state[0] != 0) {
      *decided_phase = phase;
    }
  }
  return state[0] == 1 ? 1 : 0;
}

struct LubyCase {
  const char* label;
  local::Instance inst;
};

std::vector<LubyCase> luby_cases() {
  std::vector<LubyCase> cases;
  cases.push_back({"ring, random ids",
                   local::make_instance(graph::cycle(60),
                                        ident::random_permutation(60, 11))});
  cases.push_back({"torus", local::make_instance(graph::torus(8, 8),
                                                 ident::consecutive(64))});
  cases.push_back(
      {"random-regular",
       local::make_instance(graph::random_regular_cycles(60, 3, 5),
                            ident::random_permutation(60, 12))});
  cases.push_back({"binary tree", local::make_instance(
                                      graph::binary_tree(63),
                                      ident::consecutive(63))});
  return cases;
}

std::unique_ptr<scenario::Construction> build_luby_ball(int phases) {
  const scenario::ConstructionEntry* entry =
      scenario::constructions().find("luby-ball");
  if (entry == nullptr) return nullptr;
  return entry->build(
      scenario::merged_params(entry->schema, {{"phases", phases}}));
}

// Philox draws cut to two bits: priorities tie often, so races inside the
// cone go to the identity tie-break.
class CoarseCoins final : public rand::CoinProvider {
 public:
  explicit CoarseCoins(const rand::CoinProvider& inner) : inner_(inner) {}
  std::uint64_t draw(std::uint64_t identity,
                     std::uint64_t draw_index) const override {
    return inner_.draw(identity, draw_index) & 3;
  }

 private:
  const rand::CoinProvider& inner_;
};

// Blocks a seed-dependent seventh of the nodes and fifth of the edges
// (pure, and symmetric in the edge's endpoints).
class SeededCensor final : public graph::BallFilter {
 public:
  explicit SeededCensor(std::uint64_t seed) : seed_(seed) {}
  bool node_blocked(graph::NodeId v) const override {
    return (v + seed_) % 7 == 0;
  }
  bool edge_blocked(graph::NodeId a, graph::NodeId b) const override {
    return (std::uint64_t{a} + b + seed_) % 5 == 0;
  }

 private:
  std::uint64_t seed_;
};

TEST(LubyBall, EarlyExitComputesTheFullSimulation) {
  const std::vector<LubyCase> cases = luby_cases();
  graph::BallScratch scratch;
  graph::BallView ball;
  for (int phases = 1; phases <= 6; ++phases) {
    const std::unique_ptr<scenario::Construction> built =
        build_luby_ball(phases);
    ASSERT_NE(built, nullptr);
    const local::RandomizedBallAlgorithm* algo = built->ball_algorithm();
    ASSERT_NE(algo, nullptr);
    ASSERT_EQ(algo->radius(), phases);
    // Radius K is what the runner collects; 2K - 1 and K + 3 give the
    // cone room to stop short of the ball's rim.
    for (const int radius : {phases, 2 * phases - 1, phases + 3}) {
      for (const LubyCase& c : cases) {
        std::uint64_t joined = 0;
        std::uint64_t centers = 0;
        for (std::uint64_t seed = 1; seed <= 20; ++seed) {
          const rand::PhiloxCoins philox(seed, rand::Stream::kConstruction);
          const CoarseCoins coarse(philox);
          const SeededCensor censor(seed);
          const graph::BallFilter* filter = seed % 2 == 0 ? &censor : nullptr;
          for (graph::NodeId v = 0; v < c.inst.node_count(); ++v) {
            ball.collect(c.inst.topology(), v, radius, scratch, filter);
            local::View view;
            view.ball = &ball;
            view.instance = &c.inst;
            const std::array<const rand::CoinProvider*, 2> providers = {
                &philox, &coarse};
            for (const rand::CoinProvider* coins : providers) {
              const local::Label want = full_luby_ball(view, *coins, phases);
              ASSERT_EQ(algo->compute(view, *coins), want)
                  << c.label << ", phases " << phases << ", radius "
                  << radius << ", seed " << seed << ", center " << v
                  << (coins == &coarse ? ", coarse coins" : "")
                  << (filter != nullptr ? ", censored" : "");
              joined += want;
              ++centers;
            }
          }
        }
        // Both outputs occur, so a constant-output bug cannot pass.
        EXPECT_GT(joined, 0u) << c.label << ", phases " << phases
                              << ", radius " << radius;
        EXPECT_LT(joined, centers) << c.label << ", phases " << phases
                                   << ", radius " << radius;
      }
    }
  }
}

// The cone in effect: a center that phase 0 decides is settled by its
// radius-2 members alone, so compute() draws one coin for each of them
// (5 on a ring) and none for the rest of its ball.
TEST(LubyBall, ACenterDecidedInPhaseZeroDrawsOnlyItsRadiusTwoCoins) {
  graph::BallScratch scratch;
  graph::BallView ball;
  for (const LubyCase& c : luby_cases()) {
    for (int phases = 3; phases <= 5; ++phases) {
      const std::unique_ptr<scenario::Construction> built =
          build_luby_ball(phases);
      ASSERT_NE(built, nullptr);
      const local::RandomizedBallAlgorithm* algo = built->ball_algorithm();
      ASSERT_NE(algo, nullptr);
      std::uint64_t checked = 0;
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const rand::PhiloxCoins coins(seed, rand::Stream::kConstruction);
        for (graph::NodeId v = 0; v < c.inst.node_count(); ++v) {
          ball.collect(c.inst.topology(), v, algo->radius(), scratch);
          local::View view;
          view.ball = &ball;
          view.instance = &c.inst;
          int decided_phase = -1;
          full_luby_ball(view, coins, phases, &decided_phase);
          if (decided_phase != 0) continue;
          std::uint64_t near = 0;
          for (graph::NodeId i = 0; i < ball.size(); ++i) {
            if (ball.distance(i) <= 2) ++near;
          }
          const rand::CountingCoins counting(coins);
          algo->compute(view, counting);
          ASSERT_EQ(counting.total_draws(), near)
              << c.label << ", phases " << phases << ", seed " << seed
              << ", center " << v << ", ball of " << ball.size();
          ++checked;
        }
      }
      EXPECT_GT(checked, 0u) << c.label << ", phases " << phases;
    }
  }
}

TEST(Presets, AtLeastEightSpanningThreeTopologyFamilies) {
  const auto& presets = scenario::preset_scenarios();
  ASSERT_GE(presets.size(), 8u);
  std::set<std::string> topologies;
  std::set<std::string> deciders;
  std::set<std::string> names;
  for (const ScenarioSpec& spec : presets) {
    EXPECT_EQ(scenario::validate(spec), "");
    topologies.insert(spec.topology);
    deciders.insert(spec.decider);
    EXPECT_TRUE(names.insert(spec.name).second) << "duplicate " << spec.name;
  }
  EXPECT_GE(topologies.size(), 3u);
  // Every decider family is exercised by some preset.
  for (const char* family : {"exact", "lcl", "amos", "resilient", "slack"}) {
    EXPECT_EQ(deciders.count(family), 1u) << family;
  }
}

TEST(Presets, EveryScenarioResolvesAndRunsOneTrialSweep) {
  for (const ScenarioSpec& preset : scenario::preset_scenarios()) {
    const ScenarioSpec spec = shrunk(preset, 1);
    const scenario::CompiledScenario compiled = scenario::compile(spec);
    const scenario::SweepResult result = scenario::run_sweep(compiled);
    ASSERT_EQ(result.rows.size(), 1u) << spec.name;
    EXPECT_EQ(result.rows[0].tally.trials, 1u) << spec.name;
    EXPECT_LE(result.rows[0].tally.successes, 1u) << spec.name;
  }
}

// ExactSum::to_hex() as its significant digits plus the count of
// trailing zeros (the fixed-point fraction makes up most of the string).
struct PinnedHex {
  const char* digits;
  std::size_t zeros;

  std::string hex() const { return digits + std::string(zeros, '0'); }
};

struct PinnedRow {
  const char* preset;
  std::uint64_t n;
  std::uint64_t successes;
  PinnedHex value_sum;
  PinnedHex value_sum_sq;
  std::vector<std::uint64_t> counts;
  // messages, words, rounds, ball expansions, dropped, crashed, churned.
  std::array<std::uint64_t, 7> telemetry;
};

TEST(Presets, ResultsMatchThePinnedTable) {
  // Every preset as shrunk(preset, 32), sequential. The values were
  // generated before the one-pass ball-collection kernel landed and pin
  // the catalogue's results across it: unlike the thread, shard, backend
  // and representation gates, this notices a change that shifts results
  // the same way in every run. A change that moves results on purpose
  // regenerates the table and says so.
  const PinnedRow pinned[] = {
      {"ring-slack-coloring", 24, 18, {"0", 0}, {"0", 0}, {},
       {3072, 16896, 64, 1536, 0, 0, 0}},
      {"hard-ring-resilient-coloring", 12, 3, {"0", 0}, {"0", 0}, {},
       {1536, 8448, 64, 768, 0, 0, 0}},
      {"hard-ring-beta", 12, 31, {"0", 0}, {"0", 0}, {},
       {384, 1920, 32, 384, 0, 0, 0}},
      {"ring-amos-yes", 16, 20, {"0", 0}, {"0", 0}, {},
       {1024, 5120, 64, 1024, 0, 0, 0}},
      {"ring-amos-no", 16, 18, {"0", 0}, {"0", 0}, {},
       {1024, 5120, 64, 1024, 0, 0, 0}},
      {"grid-lll-resilient", 49, 17, {"0", 0}, {"0", 0}, {},
       {8512, 41664, 64, 1568, 0, 0, 0}},
      {"gnp-weak-coloring", 64, 30, {"0", 0}, {"0", 0}, {},
       {24768, 74880, 256, 2048, 0, 0, 0}},
      {"random-regular-mis-luby", 64, 32, {"0", 0}, {"0", 0}, {},
       {20864, 79360, 232, 2048, 0, 0, 0}},
      {"tree-matching", 64, 32, {"0", 0}, {"0", 0}, {},
       {31360, 132398, 490, 0, 0, 0, 0}},
      {"hard-ring-cole-vishkin", 16, 32, {"0", 0}, {"0", 0}, {},
       {4608, 11776, 224, 512, 0, 0, 0}},
      {"ring-mis-implicit", 4096, 23, {"0", 0}, {"0", 0}, {},
       {1572864, 9175040, 160, 262144, 0, 0, 0}},
      {"luby-mis-rounds", 64, 0, {"33", 269}, {"152", 269}, {},
       {13056, 33664, 204, 0, 0, 0, 0}},
      {"ring-mis-luby-rounds", 256, 0, {"3", 270}, {"128", 269}, {},
       {49152, 126976, 192, 0, 0, 0, 0}},
      {"rand-matching-rounds", 64, 0, {"7e", 269}, {"81d", 269}, {},
       {32256, 137652, 504, 0, 0, 0, 0}},
      {"gnp-weak-coloring-quality", 64, 0, {"2a", 269}, {"10a", 269}, {},
       {2048, 2048, 32, 0, 0, 0, 0}},
      {"ring-amos-words", 16, 0, {"0", 0}, {"0", 0}, {2560},
       {512, 2560, 32, 512, 0, 0, 0}},
      {"ring-amos-drop", 16, 23, {"0", 0}, {"0", 0}, {},
       {1024, 5120, 64, 1024, 56, 0, 0}},
      {"luby-mis-crash", 64, 17, {"0", 0}, {"0", 0}, {},
       {10847, 28092, 178, 0, 0, 99, 0}},
      {"rand-matching-churn", 64, 0, {"0", 0}, {"0", 0}, {},
       {38144, 163081, 596, 0, 0, 0, 3711}},
  };
  const auto& presets = scenario::preset_scenarios();
  ASSERT_EQ(presets.size(), std::size(pinned));
  for (std::size_t i = 0; i < presets.size(); ++i) {
    const PinnedRow& want = pinned[i];
    ASSERT_EQ(presets[i].name, want.preset);
    const scenario::SweepResult result =
        scenario::run_sweep(scenario::compile(shrunk(presets[i], 32)));
    ASSERT_EQ(result.rows.size(), 1u) << want.preset;
    const scenario::SweepRow& row = result.rows[0];
    const local::ShardTally& got = row.tally;
    const local::Telemetry& t = got.telemetry;
    EXPECT_EQ(row.actual_n, want.n) << want.preset;
    EXPECT_EQ(got.trials, 32u) << want.preset;
    EXPECT_EQ(got.successes, want.successes) << want.preset;
    EXPECT_EQ(got.value_sum.to_hex(), want.value_sum.hex()) << want.preset;
    EXPECT_EQ(got.value_sum_sq.to_hex(), want.value_sum_sq.hex())
        << want.preset;
    EXPECT_EQ(got.counts, want.counts) << want.preset;
    const std::array<std::uint64_t, 7> counters = {
        t.messages_sent,   t.words_sent,       t.rounds_executed,
        t.ball_expansions, t.messages_dropped, t.nodes_crashed,
        t.edges_churned};
    EXPECT_EQ(counters, want.telemetry) << want.preset;
  }
}

TEST(Sharding, ShardRangePartitionsTheTrialRange) {
  for (const std::uint64_t trials : {1u, 7u, 8u, 9u, 1000u}) {
    for (const unsigned shards : {1u, 2u, 3u, 7u}) {
      std::uint64_t covered = 0;
      std::uint64_t expected_begin = 0;
      for (unsigned s = 0; s < shards; ++s) {
        const local::TrialRange range = local::shard_range(trials, s, shards);
        EXPECT_EQ(range.begin, expected_begin);
        expected_begin = range.end;
        covered += range.count();
      }
      EXPECT_EQ(covered, trials);
      EXPECT_EQ(expected_begin, trials);
    }
  }
}

TEST(Sharding, TwoWayMergeEqualsUnshardedBitForBit) {
  for (const ScenarioSpec& preset : scenario::preset_scenarios()) {
    const ScenarioSpec spec = shrunk(preset, 9);
    const scenario::CompiledScenario compiled = scenario::compile(spec);

    const scenario::SweepResult full = scenario::run_sweep(compiled);
    const scenario::SweepResult parts[] = {
        scenario::run_sweep(compiled, shard_of(compiled, 0, 2)),
        scenario::run_sweep(compiled, shard_of(compiled, 1, 2))};
    const scenario::SweepResult merged = scenario::merge_trial_ranges(parts);

    ASSERT_EQ(merged.rows.size(), full.rows.size()) << spec.name;
    for (std::size_t i = 0; i < full.rows.size(); ++i) {
      const stats::Estimate want = scenario::row_estimate(full.rows[i]);
      const stats::Estimate got = scenario::row_estimate(merged.rows[i]);
      EXPECT_EQ(got.successes, want.successes) << spec.name;
      EXPECT_EQ(got.trials, want.trials) << spec.name;
      // Bit-for-bit: identical integer tallies make identical doubles.
      EXPECT_EQ(got.p_hat, want.p_hat) << spec.name;
      EXPECT_EQ(got.ci.lo, want.ci.lo) << spec.name;
      EXPECT_EQ(got.ci.hi, want.ci.hi) << spec.name;
    }
  }
}

TEST(Sharding, UnevenThreeWayMergeAndJsonRoundTrip) {
  const ScenarioSpec* preset = scenario::find_preset("ring-amos-yes");
  ASSERT_NE(preset, nullptr);
  const ScenarioSpec spec = shrunk(*preset, 10);
  const scenario::CompiledScenario compiled = scenario::compile(spec);
  const scenario::SweepResult full = scenario::run_sweep(compiled);

  std::vector<scenario::SweepResult> shards;
  for (unsigned s = 0; s < 3; ++s) {
    // Round-trip every shard through its JSON wire format, as the
    // cross-process workflow does.
    std::ostringstream os;
    scenario::write_json(
        os, scenario::run_sweep(compiled, shard_of(compiled, s, 3)));
    shards.push_back(scenario::sweep_from_json(os.str()));
  }
  const scenario::SweepResult merged = scenario::merge_trial_ranges(shards);
  EXPECT_EQ(scenario::row_estimate(merged.rows[0]).p_hat,
            scenario::row_estimate(full.rows[0]).p_hat);
  EXPECT_EQ(merged.rows[0].tally.successes, full.rows[0].tally.successes);
}

TEST(Sharding, TelemetryTwoWayMergeEqualsUnshardedBitForBit) {
  // The deterministic communication counters obey the same partition
  // contract as the success tallies: any shard split merges back to the
  // unsharded counters exactly, for every preset.
  for (const ScenarioSpec& preset : scenario::preset_scenarios()) {
    const ScenarioSpec spec = shrunk(preset, 9);
    const scenario::CompiledScenario compiled = scenario::compile(spec);
    const scenario::SweepResult full = scenario::run_sweep(compiled);
    const scenario::SweepResult parts[] = {
        scenario::run_sweep(compiled, shard_of(compiled, 0, 2)),
        scenario::run_sweep(compiled, shard_of(compiled, 1, 2))};
    const scenario::SweepResult merged = scenario::merge_trial_ranges(parts);
    ASSERT_EQ(merged.rows.size(), full.rows.size()) << spec.name;
    for (std::size_t i = 0; i < full.rows.size(); ++i) {
      const local::Telemetry& want = full.rows[i].tally.telemetry;
      const local::Telemetry& got = merged.rows[i].tally.telemetry;
      EXPECT_EQ(got.messages_sent, want.messages_sent) << spec.name;
      EXPECT_EQ(got.words_sent, want.words_sent) << spec.name;
      EXPECT_EQ(got.rounds_executed, want.rounds_executed) << spec.name;
      EXPECT_EQ(got.ball_expansions, want.ball_expansions) << spec.name;
    }
  }
}

TEST(Sharding, TelemetryUnevenThreeWayMergeSurvivesJsonRoundTrip) {
  const ScenarioSpec* preset = scenario::find_preset("ring-amos-yes");
  ASSERT_NE(preset, nullptr);
  const ScenarioSpec spec = shrunk(*preset, 10);
  const scenario::CompiledScenario compiled = scenario::compile(spec);
  const scenario::SweepResult full = scenario::run_sweep(compiled);
  ASSERT_GT(full.rows[0].tally.telemetry.messages_sent, 0u);
  ASSERT_GT(full.rows[0].tally.telemetry.words_sent, 0u);
  ASSERT_GT(full.rows[0].tally.telemetry.rounds_executed, 0u);

  std::vector<scenario::SweepResult> shards;
  for (unsigned s = 0; s < 3; ++s) {  // 10 trials over 3 shards: 4/3/3
    std::ostringstream os;
    scenario::write_json(
        os, scenario::run_sweep(compiled, shard_of(compiled, s, 3)));
    std::vector<std::string> warnings;
    shards.push_back(scenario::sweep_from_json(os.str(), &warnings));
    EXPECT_TRUE(warnings.empty()) << warnings[0];
  }
  const scenario::SweepResult merged = scenario::merge_trial_ranges(shards);
  EXPECT_TRUE(merged.rows[0].tally.telemetry.deterministic_equal(
      full.rows[0].tally.telemetry));
}

TEST(ValueSweep, SummaryLinesAreGrepStableAndThreadInvariant) {
  // The value-mode CLI summary line prints the mean/stddev at full
  // round-trip precision, so string equality across thread counts IS the
  // exact-merge contract. A hand-built row pins the exact format.
  scenario::SweepResult result;
  result.scenario = "golden";
  result.workload = local::WorkloadKind::kValue;
  scenario::SweepRow row;
  row.requested_n = 8;
  row.actual_n = 8;
  row.total_trials = 2;
  row.tally.trials = 2;
  row.tally.value_sum.add(1.5);
  row.tally.value_sum.add(2.5);
  row.tally.value_sum_sq.add(1.5 * 1.5);
  row.tally.value_sum_sq.add(2.5 * 2.5);
  result.rows.push_back(row);
  const std::vector<std::string> golden = scenario::summary_lines(result);
  ASSERT_EQ(golden.size(), 1u);
  EXPECT_EQ(golden[0],
            "value[golden/n8]: mean=2 stddev=0.70710678118654757 trials=2");

  // Live sweeps: identical lines at 1 and 8 worker threads.
  const ScenarioSpec* preset = scenario::find_preset("luby-mis-rounds");
  ASSERT_NE(preset, nullptr);
  const ScenarioSpec spec = shrunk(*preset, 12);
  const scenario::CompiledScenario compiled = scenario::compile(spec);
  const std::vector<std::string> sequential =
      scenario::summary_lines(scenario::run_sweep(compiled));
  const stats::ThreadPool pool(8);
  scenario::SweepOptions pooled;
  pooled.pool = &pool;
  EXPECT_EQ(sequential,
            scenario::summary_lines(scenario::run_sweep(compiled, pooled)));
  ASSERT_EQ(sequential.size(), 1u);
  EXPECT_EQ(sequential[0].rfind("value[luby-mis-rounds/n64]: mean=", 0), 0u)
      << sequential[0];
  EXPECT_NE(sequential[0].find(" stddev="), std::string::npos);
  EXPECT_NE(sequential[0].find(" trials=12"), std::string::npos);

  // Sharded (incomplete) results and success workloads emit no lines.
  EXPECT_TRUE(scenario::summary_lines(
                  scenario::run_sweep(compiled, shard_of(compiled, 0, 2)))
                  .empty());
}

TEST(ValueSweep, JsonRoundTripCarriesTheMeanBlock) {
  const ScenarioSpec* preset = scenario::find_preset("luby-mis-rounds");
  ASSERT_NE(preset, nullptr);
  const scenario::CompiledScenario compiled =
      scenario::compile(shrunk(*preset, 9));

  const scenario::SweepResult shard =
      scenario::run_sweep(compiled, shard_of(compiled, 1, 2));
  std::ostringstream os;
  scenario::write_json(os, shard);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"workload\": \"value\""), std::string::npos);
  EXPECT_NE(text.find("\"values\": {\"sum\": "), std::string::npos);
  EXPECT_NE(text.find("\"exact_sum\": \""), std::string::npos);

  std::vector<std::string> warnings;
  const scenario::SweepResult parsed =
      scenario::sweep_from_json(text, &warnings);
  EXPECT_TRUE(warnings.empty()) << warnings[0];
  EXPECT_EQ(parsed.workload, local::WorkloadKind::kValue);
  ASSERT_EQ(parsed.rows.size(), shard.rows.size());
  for (std::size_t i = 0; i < shard.rows.size(); ++i) {
    EXPECT_TRUE(parsed.rows[i].tally.value_sum ==
                shard.rows[i].tally.value_sum);
    EXPECT_TRUE(parsed.rows[i].tally.value_sum_sq ==
                shard.rows[i].tally.value_sum_sq);
  }
}

TEST(ValueSweep, CounterJsonRoundTripCarriesCounts) {
  const ScenarioSpec* preset = scenario::find_preset("ring-amos-words");
  ASSERT_NE(preset, nullptr);
  const scenario::CompiledScenario compiled =
      scenario::compile(shrunk(*preset, 7));
  const scenario::SweepResult full = scenario::run_sweep(compiled);
  ASSERT_EQ(full.rows[0].tally.counts.size(), 1u);
  EXPECT_GT(full.rows[0].tally.counts[0], 0u);

  std::ostringstream os;
  scenario::write_json(os, full);
  EXPECT_NE(os.str().find("\"workload\": \"counter\""), std::string::npos);
  EXPECT_NE(os.str().find("\"counts\": ["), std::string::npos);
  std::vector<std::string> warnings;
  const scenario::SweepResult parsed =
      scenario::sweep_from_json(os.str(), &warnings);
  EXPECT_TRUE(warnings.empty()) << warnings[0];
  EXPECT_EQ(parsed.rows[0].tally.counts, full.rows[0].tally.counts);
}

TEST(ValueSweep, WarnsOnUnknownValueRowKeysButStillParses) {
  // A value shard file from a future binary generation: foreign keys in
  // a row's values block (and next to it) warn but do not break the
  // merge, and the exact accumulators still read back bit-perfectly.
  scenario::SweepResult seeded;
  seeded.scenario = "x";
  seeded.workload = local::WorkloadKind::kValue;
  scenario::SweepRow row;
  row.requested_n = 8;
  row.actual_n = 8;
  row.total_trials = 4;
  row.tally.trials = 4;
  row.tally.value_sum.add(0.1);
  row.tally.value_sum.add(2.25);
  row.tally.value_sum_sq.add(0.1 * 0.1);
  row.tally.value_sum_sq.add(2.25 * 2.25);
  seeded.rows.push_back(row);
  std::ostringstream os;
  scenario::write_json(os, seeded);
  std::string text = os.str();
  const std::string needle = "\"exact_sum\":";
  text.insert(text.find(needle), "\"future_moment\": 3.5, ");
  ASSERT_NE(text.find("future_moment"), std::string::npos);

  std::vector<std::string> warnings;
  const scenario::SweepResult parsed =
      scenario::sweep_from_json(text, &warnings);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("future_moment"), std::string::npos);
  EXPECT_NE(warnings[0].find("values-block"), std::string::npos);
  EXPECT_TRUE(parsed.rows[0].tally.value_sum ==
              seeded.rows[0].tally.value_sum);
  EXPECT_EQ(scenario::row_mean(parsed.rows[0]).mean,
            scenario::row_mean(seeded.rows[0]).mean);

  // An unknown workload tag is a hard error, not a warning — the reader
  // cannot merge tallies it does not understand.
  EXPECT_THROW(
      scenario::sweep_from_json(
          "{\"scenario\": \"x\", \"base_seed\": 1, \"shard\": 0, "
          "\"shard_count\": 1, \"workload\": \"vibes\", \"rows\": []}"),
      std::runtime_error);
}

TEST(ValueSweep, MergeRejectsMixedWorkloads) {
  const ScenarioSpec* value_preset = scenario::find_preset("luby-mis-rounds");
  ASSERT_NE(value_preset, nullptr);
  const scenario::CompiledScenario compiled =
      scenario::compile(shrunk(*value_preset, 8));
  const scenario::SweepResult shard0 =
      scenario::run_sweep(compiled, shard_of(compiled, 0, 2));
  scenario::SweepResult shard1 =
      scenario::run_sweep(compiled, shard_of(compiled, 1, 2));
  shard1.workload = local::WorkloadKind::kSuccess;  // simulated stale file
  const scenario::SweepResult mixed[] = {shard0, shard1};
  EXPECT_NE(scenario::can_merge_trial_ranges(mixed).find("workload"),
            std::string::npos);
}

TEST(SweepJson, WarnsOnUnrecognizedKeysButStillParses) {
  // A shard file from a different binary generation (here: an invented
  // top-level key and an invented row key) must parse — old files stay
  // mergeable — but surface both foreign keys as warnings.
  const std::string text =
      "{\"scenario\": \"x\", \"base_seed\": 1, \"shard\": 0, "
      "\"shard_count\": 1, \"future_field\": 7, \"rows\": "
      "[{\"n\": 8, \"actual_n\": 8, \"total_trials\": 4, \"trials\": 4, "
      "\"successes\": 2, \"exotic\": 1}]}";
  std::vector<std::string> warnings;
  const scenario::SweepResult result =
      scenario::sweep_from_json(text, &warnings);
  EXPECT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].tally.successes, 2u);
  // Pre-telemetry rows read back with zeroed counters.
  EXPECT_EQ(result.rows[0].tally.telemetry.messages_sent, 0u);
  ASSERT_EQ(warnings.size(), 2u);
  EXPECT_NE(warnings[0].find("future_field"), std::string::npos);
  EXPECT_NE(warnings[1].find("exotic"), std::string::npos);
  // Without a warning sink the same file parses silently (library use).
  EXPECT_EQ(scenario::sweep_from_json(text).rows.size(), 1u);
}

TEST(Sharding, CanMergeRejectsDuplicateAndIncompleteShardSets) {
  const ScenarioSpec* preset = scenario::find_preset("ring-amos-yes");
  ASSERT_NE(preset, nullptr);
  const ScenarioSpec spec = shrunk(*preset, 8);
  const scenario::CompiledScenario compiled = scenario::compile(spec);
  const scenario::SweepResult shard0 =
      scenario::run_sweep(compiled, shard_of(compiled, 0, 2));
  const scenario::SweepResult shard1 =
      scenario::run_sweep(compiled, shard_of(compiled, 1, 2));

  const scenario::SweepResult ok[] = {shard0, shard1};
  EXPECT_EQ(scenario::can_merge_trial_ranges(ok), "");
  // The same half twice sums to the right trial count but double-counts.
  const scenario::SweepResult duplicate[] = {shard0, shard0};
  EXPECT_NE(scenario::can_merge_trial_ranges(duplicate), "");
  // A missing half leaves trials uncovered: shard 0 of 2 on its own ends
  // short of the total_trials it declares.
  const scenario::SweepResult incomplete[] = {shard0};
  EXPECT_NE(scenario::can_merge_trial_ranges(incomplete).find("cover"),
            std::string::npos)
      << scenario::can_merge_trial_ranges(incomplete);
}

/// Every tally block, the trial extent, and the deterministic telemetry
/// of `got` equal those of `want`, bit for bit.
void expect_same_rows(const scenario::SweepResult& want,
                      const scenario::SweepResult& got) {
  EXPECT_EQ(got.trial_begin, want.trial_begin);
  EXPECT_EQ(got.trial_end, want.trial_end);
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (std::size_t i = 0; i < want.rows.size(); ++i) {
    const local::ShardTally& a = want.rows[i].tally;
    const local::ShardTally& b = got.rows[i].tally;
    EXPECT_EQ(got.rows[i].total_trials, want.rows[i].total_trials);
    EXPECT_EQ(b.trials, a.trials);
    EXPECT_EQ(b.successes, a.successes);
    EXPECT_TRUE(b.value_sum == a.value_sum);
    EXPECT_TRUE(b.value_sum_sq == a.value_sum_sq);
    EXPECT_EQ(b.counts, a.counts);
    EXPECT_TRUE(b.telemetry.deterministic_equal(a.telemetry));
  }
}

std::string result_text(const scenario::SweepResult& result) {
  std::ostringstream os;
  scenario::write_json(os, result);
  return os.str();
}

/// A result file as binaries wrote it before results carried their trial
/// range: an i-of-k index in place of trial_begin/trial_end.
std::string as_legacy_shard(std::string text, const std::string& shard,
                            const std::string& shard_count) {
  const std::size_t begin = text.find("\"trial_begin\": ");
  const std::size_t end = text.find("\"seed_stream_epoch\": ");
  EXPECT_NE(begin, std::string::npos);
  EXPECT_NE(end, std::string::npos);
  return text.replace(begin, end - begin,
                      "\"shard\": " + shard + ", \"shard_count\": " +
                          shard_count + ", ");
}

/// Writes `text` to a fresh file under the test temp dir; returns its path.
std::string temp_file(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "lnc-scenario-" + name;
  std::ofstream(path) << text;
  return path;
}

TEST(ShardFiles, MergeInAnyOrderEqualsTheUnshardedRun) {
  const ScenarioSpec* preset = scenario::find_preset("luby-mis-rounds");
  ASSERT_NE(preset, nullptr);
  const scenario::CompiledScenario compiled =
      scenario::compile(shrunk(*preset, 10));
  const scenario::SweepResult full = scenario::run_sweep(compiled);
  std::vector<std::string> paths;
  for (unsigned s = 0; s < 3; ++s) {
    paths.push_back(temp_file(
        "any-order-" + std::to_string(s) + ".json",
        result_text(scenario::run_sweep(compiled, shard_of(compiled, s, 3)))));
  }
  const std::vector<std::string> reversed(paths.rbegin(), paths.rend());
  std::vector<std::string> warnings;
  const scenario::SweepResult merged =
      scenario::merge_sweep_files(reversed, &warnings);
  EXPECT_TRUE(warnings.empty()) << warnings[0];
  EXPECT_TRUE(merged.complete());
  expect_same_rows(full, merged);
}

TEST(ShardFiles, LegacyShardIndexReadsAsItsTrialRange) {
  const ScenarioSpec* preset = scenario::find_preset("ring-amos-words");
  ASSERT_NE(preset, nullptr);
  const scenario::CompiledScenario compiled =
      scenario::compile(shrunk(*preset, 9));
  const scenario::SweepResult full = scenario::run_sweep(compiled);
  std::vector<std::string> fresh;
  std::vector<std::string> legacy;
  for (unsigned s = 0; s < 2; ++s) {
    fresh.push_back(
        result_text(scenario::run_sweep(compiled, shard_of(compiled, s, 2))));
    legacy.push_back(as_legacy_shard(fresh.back(), std::to_string(s), "2"));
    ASSERT_EQ(legacy.back().find("trial_begin"), std::string::npos);
    const scenario::SweepResult parsed =
        scenario::sweep_from_json(legacy.back());
    EXPECT_EQ(parsed.trial_begin, local::shard_range(9, s, 2).begin);
    EXPECT_EQ(parsed.trial_end, local::shard_range(9, s, 2).end);
  }
  const std::vector<std::string> paths = {
      temp_file("legacy-1.json", legacy[1]),
      temp_file("legacy-0.json", legacy[0])};
  expect_same_rows(full, scenario::merge_sweep_files(paths));

  // Shard 0 of 2 on its own ends short of the 9 trials it declares.
  const scenario::SweepResult alone[] = {scenario::sweep_from_json(legacy[0])};
  EXPECT_NE(scenario::can_merge_trial_ranges(alone), "");

  // An index outside its count is a diagnosed error, never an assert.
  const std::string out_of_range = as_legacy_shard(fresh[0], "2", "2");
  EXPECT_THROW(scenario::sweep_from_json(out_of_range), std::runtime_error);
  EXPECT_THROW(scenario::sweep_from_json(as_legacy_shard(fresh[0], "0", "0")),
               std::runtime_error);
  const std::vector<std::string> bad = {
      paths[0], temp_file("legacy-bad.json", out_of_range)};
  EXPECT_THROW(scenario::merge_sweep_files(bad), std::runtime_error);
}

TEST(ShardFiles, ShardAndTrialRangePartsMergeTogether) {
  // A shard is a trial range: an i-of-k shard file abutting an explicit
  // --trial-range slice file merges like any other partition.
  const ScenarioSpec* preset = scenario::find_preset("luby-mis-rounds");
  ASSERT_NE(preset, nullptr);
  const scenario::CompiledScenario compiled =
      scenario::compile(shrunk(*preset, 30));
  const scenario::SweepResult full = scenario::run_sweep(compiled);
  scenario::SweepOptions rest;
  rest.trial_range = local::TrialRange{local::shard_range(30, 0, 3).end, 30};
  const std::vector<std::string> paths = {
      temp_file("mixed-rest.json",
                result_text(scenario::run_sweep(compiled, rest))),
      temp_file("mixed-shard0.json",
                result_text(scenario::run_sweep(compiled,
                                                shard_of(compiled, 0, 3))))};
  expect_same_rows(full, scenario::merge_sweep_files(paths));
}

TEST(SpecJson, FullWidthSeedsRoundTripExactly) {
  const std::uint64_t big = 18446744073709551615ull;  // 2^64 - 1
  const ScenarioSpec spec = scenario::spec_from_json(
      "{\"seed\": 18446744073709551615, \"trials\": 9007199254740993}");
  EXPECT_EQ(spec.base_seed, big);
  EXPECT_EQ(spec.trials, 9007199254740993ull);  // 2^53 + 1: double rounds
}

TEST(Validation, RejectsUnknownComponentsAndParams) {
  ScenarioSpec spec;
  spec.name = "bad";
  spec.topology = "moebius";
  spec.language = "coloring";
  spec.construction = "rand-coloring";
  spec.n_grid = {8};
  EXPECT_NE(scenario::validate(spec).find("unknown topology"),
            std::string::npos);

  spec.topology = "ring";
  spec.params["frobnication"] = 1;
  EXPECT_NE(scenario::validate(spec).find("frobnication"), std::string::npos);
  spec.params.clear();

  spec.construction = "cole-vishkin";
  spec.topology = "grid";
  EXPECT_NE(scenario::validate(spec).find("ring"), std::string::npos);

  spec.topology = "ring";
  spec.construction = "rand-coloring";
  spec.language = "amos";
  spec.decider = "resilient";
  EXPECT_NE(scenario::validate(spec).find("LCL"), std::string::npos);
}

TEST(Validation, AllSixRegistriesShareOneUnknownDiagnosticShape) {
  // Every string-addressable registry — topology, language, construction,
  // decider, fault, statistic — answers an unknown name with the same
  // "unknown <kind> '<name>'; available: …" shape, so a CLI user always
  // sees the catalogue they can pick from, whichever knob they mistyped.
  const auto expect_shape = [](const std::string& message,
                               const std::string& kind, const char* member) {
    EXPECT_EQ(message.rfind("unknown " + kind + " 'nope'; available: ", 0), 0u)
        << message;
    EXPECT_NE(message.find(member), std::string::npos) << message;
  };
  ScenarioSpec base;
  base.name = "diag";
  base.topology = "ring";
  base.language = "coloring";
  base.construction = "rand-coloring";
  base.decider = "exact";
  base.n_grid = {8};
  ASSERT_EQ(scenario::validate(base), "");

  ScenarioSpec spec = base;
  spec.topology = "nope";
  expect_shape(scenario::validate(spec), "topology", "ring");
  spec = base;
  spec.language = "nope";
  expect_shape(scenario::validate(spec), "language", "coloring");
  spec = base;
  spec.construction = "nope";
  expect_shape(scenario::validate(spec), "construction", "rand-coloring");
  spec = base;
  spec.decider = "nope";
  expect_shape(scenario::validate(spec), "decider", "exact");
  spec = base;
  spec.fault = "nope";
  expect_shape(scenario::validate(spec), "fault", "drop");
  spec = base;
  spec.workload = local::WorkloadKind::kValue;
  spec.statistic = "nope";
  expect_shape(scenario::validate(spec), "statistic", "rounds");
}

TEST(Validation, FaultParamsAndCompatibilityAreDiagnosed) {
  ScenarioSpec spec;
  spec.name = "faulty";
  spec.topology = "ring";
  spec.language = "coloring";
  spec.construction = "rand-coloring";
  spec.decider = "exact";
  spec.n_grid = {8};
  spec.fault = "drop";
  spec.fault_params = {{"p-loss", 0.25}};
  EXPECT_EQ(scenario::validate(spec), "");

  // Fault params live in their own namespace, validated against the fault
  // model's schema only: foreign keys and out-of-range values name the
  // fault model, and `none` declares no parameters at all.
  spec.fault_params = {{"p-crash", 0.25}};
  EXPECT_NE(scenario::validate(spec).find("fault model 'drop'"),
            std::string::npos);
  spec.fault_params = {{"p-loss", 1.5}};
  EXPECT_NE(scenario::validate(spec).find("range"), std::string::npos);
  spec.fault = "none";
  spec.fault_params = {{"p-loss", 0.1}};
  EXPECT_NE(scenario::validate(spec).find("fault model 'none'"),
            std::string::npos);

  // Non-trivial faults require a fault-capable construction.
  spec.fault = "drop";
  spec.fault_params.clear();
  spec.construction = "greedy-coloring";
  EXPECT_NE(scenario::validate(spec).find("fault"), std::string::npos);
}

TEST(Validation, RejectsOutOfRangeAndNanParameters) {
  ScenarioSpec spec;
  spec.name = "ranges";
  spec.topology = "ring";
  spec.language = "coloring";
  spec.construction = "rand-coloring";
  spec.decider = "slack";
  spec.n_grid = {12};
  spec.params = {{"eps", 0.5}};
  EXPECT_EQ(scenario::validate(spec), "");
  spec.params["eps"] = 2.0;  // slack decider declares eps in (0, 1]
  EXPECT_NE(scenario::validate(spec).find("range"), std::string::npos);
  // NaN satisfies no declared range — it must be diagnosed here, not
  // abort later in the decider's constructor precondition.
  spec.params["eps"] = std::nan("");
  EXPECT_NE(scenario::validate(spec).find("range"), std::string::npos);
  spec.params = {{"colors", 0}};  // below the palette minimum
  spec.decider = "exact";
  EXPECT_NE(scenario::validate(spec).find("range"), std::string::npos);
}

// Values a component cannot take are diagnosed here, not left to abort in
// its constructor: the resilient decider's p, explicit or default, must
// lie strictly inside (2^(-1/f), 2^(-1/(f+1))), so an explicit p is
// checked against that interval and f is capped where the default still
// is; hard-ring identities start at 1.
TEST(Validation, InadmissibleResilientPAndIdStartAreDiagnosed) {
  ScenarioSpec spec;
  spec.name = "admissible";
  spec.topology = "ring";
  spec.language = "resilient-coloring";
  spec.construction = "rand-coloring";
  spec.decider = "resilient";
  spec.n_grid = {12};
  EXPECT_EQ(scenario::validate(spec), "");
  spec.params = {{"p", 0.6}};  // inside (0.5, 0.7071) at f = 1
  EXPECT_EQ(scenario::validate(spec), "");
  for (const double p : {0.0, 0.3, 1.0}) {
    spec.params = {{"p", p}};
    EXPECT_NE(scenario::validate(spec).find("strictly inside"),
              std::string::npos)
        << "p = " << p;
  }
  spec.params = {{"faults", 1e7}};
  EXPECT_EQ(scenario::validate(spec), "");
  spec.params = {{"faults", 1e9}};
  EXPECT_NE(scenario::validate(spec).find("range"), std::string::npos);

  spec.topology = "hard-ring";
  spec.language = "coloring";
  spec.decider = "lcl";
  spec.params = {{"id-start", 1}};
  EXPECT_EQ(scenario::validate(spec), "");
  spec.params = {{"id-start", 0}};
  EXPECT_NE(scenario::validate(spec).find("id-start"), std::string::npos);
}

TEST(ValueSweep, CanMergeRejectsMismatchedCounterWidths) {
  // A shard file from a binary generation with a different counter-slot
  // layout must be refused with a diagnostic, not an abort.
  const ScenarioSpec* preset = scenario::find_preset("ring-amos-words");
  ASSERT_NE(preset, nullptr);
  const scenario::CompiledScenario compiled =
      scenario::compile(shrunk(*preset, 8));
  const scenario::SweepResult shard0 =
      scenario::run_sweep(compiled, shard_of(compiled, 0, 2));
  scenario::SweepResult shard1 =
      scenario::run_sweep(compiled, shard_of(compiled, 1, 2));
  shard1.rows[0].tally.counts.push_back(7);  // extra foreign slot
  const scenario::SweepResult mismatched[] = {shard0, shard1};
  EXPECT_NE(scenario::can_merge_trial_ranges(mismatched).find("widths"),
            std::string::npos);
  // A part without counts merges as all-zero, so the widths that must
  // agree are those of the parts that carry counts.
  std::vector<scenario::SweepResult> thirds;
  for (unsigned s = 0; s < 3; ++s) {
    thirds.push_back(scenario::run_sweep(compiled, shard_of(compiled, s, 3)));
  }
  thirds[0].rows[0].tally.counts.clear();
  thirds[2].rows[0].tally.counts.push_back(7);
  EXPECT_NE(scenario::can_merge_trial_ranges(thirds).find("widths"),
            std::string::npos);
}

TEST(SpecJson, ShippedScenarioFilesParseAndValidate) {
  const std::filesystem::path dir =
      std::filesystem::path(LNC_SOURCE_DIR) / "scenarios";
  ASSERT_TRUE(std::filesystem::is_directory(dir));
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    ++count;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    const ScenarioSpec spec = scenario::spec_from_json(text.str());
    EXPECT_EQ(scenario::validate(spec), "") << entry.path();
    EXPECT_EQ(spec.name, entry.path().stem().string()) << entry.path();
    // Shipped files mirror registered presets.
    EXPECT_NE(scenario::find_preset(spec.name), nullptr) << entry.path();
  }
  EXPECT_GE(count, 8u);
}

TEST(SpecJson, MalformedInputThrowsWithOffset) {
  EXPECT_THROW(scenario::Json::parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(scenario::spec_from_json("{\"nonsense\": 1}"),
               std::runtime_error);
  EXPECT_THROW(scenario::spec_from_json("{\"success\": \"maybe\"}"),
               std::runtime_error);
}

TEST(SpecJson, DeepNestingIsDiagnosedWithOffset) {
  constexpr std::size_t cap = scenario::Json::kMaxDepth;
  // 200,000 open brackets used to overflow the parser's stack; now the
  // first bracket past the cap is reported where it stands.
  try {
    scenario::Json::parse(std::string(200000, '['));
    FAIL() << "deep nesting parsed";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what())
                  .find("JSON error at offset " + std::to_string(cap) + ":"),
              std::string::npos)
        << error.what();
  }
  EXPECT_THROW(scenario::spec_from_json(std::string(cap + 1, '{')),
               std::runtime_error);

  // Exactly at the cap, both container kinds still parse.
  const scenario::Json arrays =
      scenario::Json::parse(std::string(cap, '[') + std::string(cap, ']'));
  std::size_t depth = 1;
  for (const scenario::Json* at = &arrays; !at->array.empty();
       at = &at->array.front()) {
    ++depth;
  }
  EXPECT_EQ(depth, cap);
  std::string objects;
  for (std::size_t i = 1; i < cap; ++i) objects += "{\"k\": ";
  objects += "{}" + std::string(cap - 1, '}');
  EXPECT_NO_THROW(scenario::Json::parse(objects));
}

TEST(Recycling, ScratchReuseAcrossFactoriesStaysCorrect) {
  const local::Instance inst = scenario::build_instance("ring", 32);
  const rand::PhiloxCoins coins(7, rand::Stream::kConstruction);
  const algo::WeakColorMcFactory factory(4);

  local::EngineOptions fresh;
  fresh.coins = &coins;
  const local::EngineResult want = run_engine(inst, factory, fresh);

  local::EngineScratch scratch;
  local::EngineOptions reused;
  reused.coins = &coins;
  reused.scratch = &scratch;
  // Second run recycles the retained programs in place; a factory with a
  // DIFFERENT configuration afterwards must not reuse them.
  const local::EngineResult first = run_engine(inst, factory, reused);
  const local::EngineResult second = run_engine(inst, factory, reused);
  EXPECT_EQ(first.output, want.output);
  EXPECT_EQ(second.output, want.output);

  const algo::WeakColorMcFactory other(2);
  const local::EngineResult shorter = run_engine(inst, other, reused);
  local::EngineOptions fresh_other;
  fresh_other.coins = &coins;
  EXPECT_EQ(shorter.output, run_engine(inst, other, fresh_other).output);
}

}  // namespace
