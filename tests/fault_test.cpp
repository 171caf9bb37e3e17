// Fault-model tests: bit-reproducibility of faulty sweeps across thread
// counts, shard layouts, and trial-range slices (every fault draw is a
// pure function of (trial, entity, round) Philox counters, never of
// execution order), the trivial-fault invariants that keep specs
// without a fault block byte-identical to the pre-fault path, and the
// engine's realized faults checked port by port against the models'
// per-edge predicates.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "graph/generators.h"
#include "ident/identity.h"
#include "local/engine.h"
#include "local/instance.h"
#include "rand/coins.h"
#include "scenario/presets.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/spec_json.h"
#include "scenario/sweep.h"
#include "stats/threadpool.h"

namespace {

using namespace lnc;
using scenario::ScenarioSpec;

const char* const kFaultPresets[] = {"ring-amos-drop", "luby-mis-crash",
                                     "rand-matching-churn"};

ScenarioSpec shrunk(const ScenarioSpec& preset, std::uint64_t trials) {
  ScenarioSpec spec = preset;
  spec.trials = trials;
  spec.n_grid = {preset.n_grid.front()};
  return spec;
}

// The fault counter a preset's model is expected to exercise.
std::uint64_t fault_counter(const ScenarioSpec& spec,
                            const local::Telemetry& telemetry) {
  if (spec.fault == "drop") return telemetry.messages_dropped;
  if (spec.fault == "crash") return telemetry.nodes_crashed;
  if (spec.fault == "churn") return telemetry.edges_churned;
  return 0;
}

void expect_rows_bit_identical(const scenario::SweepResult& want,
                               const scenario::SweepResult& got,
                               const std::string& label) {
  ASSERT_EQ(got.rows.size(), want.rows.size()) << label;
  for (std::size_t i = 0; i < want.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i].tally.successes, want.rows[i].tally.successes)
        << label;
    EXPECT_EQ(got.rows[i].tally.trials, want.rows[i].tally.trials) << label;
    EXPECT_TRUE(got.rows[i].tally.value_sum == want.rows[i].tally.value_sum)
        << label;
    EXPECT_TRUE(got.rows[i].tally.value_sum_sq ==
                want.rows[i].tally.value_sum_sq)
        << label;
    EXPECT_TRUE(got.rows[i].tally.telemetry.deterministic_equal(
        want.rows[i].tally.telemetry))
        << label;
    if (want.complete() && got.complete()) {
      const stats::Estimate w = scenario::row_estimate(want.rows[i]);
      const stats::Estimate g = scenario::row_estimate(got.rows[i]);
      EXPECT_EQ(g.p_hat, w.p_hat) << label;
      EXPECT_EQ(g.ci.lo, w.ci.lo) << label;
      EXPECT_EQ(g.ci.hi, w.ci.hi) << label;
    }
  }
}

TEST(FaultRegistry, AllFourModelsAreRegisteredWithSchemas) {
  for (const char* name : {"none", "drop", "crash", "churn"}) {
    const scenario::FaultEntry* entry = scenario::faults().find(name);
    ASSERT_NE(entry, nullptr) << name;
    if (std::string(name) == "none") {
      EXPECT_TRUE(entry->schema.empty());
      EXPECT_TRUE(scenario::make_fault("none", {})->trivial());
    } else {
      EXPECT_FALSE(entry->schema.empty()) << name;
      EXPECT_FALSE(
          scenario::make_fault(name, scenario::merged_params(entry->schema, {}))
              ->trivial())
          << name;
    }
  }
}

TEST(FaultModels, EachPresetIsThreadCountInvariantBitForBit) {
  // The core resilience contract: drop, crash, and churn sweeps produce
  // bit-identical tallies AND fault telemetry at 1 and 8 worker threads,
  // because every fault coin is keyed by (trial, entity, round), never by
  // which thread happened to run the trial.
  const stats::ThreadPool pool(8);
  for (const char* name : kFaultPresets) {
    const ScenarioSpec* preset = scenario::find_preset(name);
    ASSERT_NE(preset, nullptr) << name;
    const ScenarioSpec spec = shrunk(*preset, 48);
    const scenario::CompiledScenario compiled = scenario::compile(spec);
    const scenario::SweepResult sequential = scenario::run_sweep(compiled);
    scenario::SweepOptions pooled;
    pooled.pool = &pool;
    const scenario::SweepResult threaded =
        scenario::run_sweep(compiled, pooled);
    expect_rows_bit_identical(sequential, threaded, name);
    // The preset's fault model actually fired: its counter is nonzero and
    // identical across thread counts.
    const std::uint64_t count =
        fault_counter(spec, sequential.rows[0].tally.telemetry);
    EXPECT_GT(count, 0u) << name;
    EXPECT_EQ(fault_counter(spec, threaded.rows[0].tally.telemetry), count)
        << name;
  }
}

TEST(FaultModels, UnevenThreeWayShardMergeSurvivesJsonRoundTrip) {
  // 10 trials over 3 shards (4/3/3), every shard round-tripped through
  // its JSON wire format: the merge reproduces the unsharded tallies,
  // exact sums, and fault telemetry bit for bit.
  for (const char* name : kFaultPresets) {
    const ScenarioSpec* preset = scenario::find_preset(name);
    ASSERT_NE(preset, nullptr) << name;
    const ScenarioSpec spec = shrunk(*preset, 10);
    const scenario::CompiledScenario compiled = scenario::compile(spec);
    const scenario::SweepResult full = scenario::run_sweep(compiled);

    std::vector<scenario::SweepResult> shards;
    for (unsigned s = 0; s < 3; ++s) {
      scenario::SweepOptions options;
      options.trial_range = local::shard_range(spec.trials, s, 3);
      std::ostringstream os;
      scenario::write_json(os, scenario::run_sweep(compiled, options));
      std::vector<std::string> warnings;
      shards.push_back(scenario::sweep_from_json(os.str(), &warnings));
      EXPECT_TRUE(warnings.empty()) << name << ": " << warnings[0];
    }
    const scenario::SweepResult merged = scenario::merge_trial_ranges(shards);
    expect_rows_bit_identical(full, merged, name);
  }
}

TEST(FaultModels, TrialRangeSlicesMergeBitIdenticallyWithTheFullRun) {
  // Crash and churn draws depend only on the trial index, not on which
  // trials ran before: three uneven abutting --trial-range slices merge
  // to the full run bit for bit.
  for (const char* name : kFaultPresets) {
    const ScenarioSpec* preset = scenario::find_preset(name);
    ASSERT_NE(preset, nullptr) << name;
    const ScenarioSpec spec = shrunk(*preset, 30);
    const scenario::CompiledScenario compiled = scenario::compile(spec);
    const scenario::SweepResult full = scenario::run_sweep(compiled);

    const std::uint64_t cuts[] = {0, 7, 19, 30};
    std::vector<scenario::SweepResult> parts;
    for (int i = 0; i < 3; ++i) {
      scenario::SweepOptions options;
      options.trial_range = local::TrialRange{cuts[i], cuts[i + 1]};
      parts.push_back(scenario::run_sweep(compiled, options));
    }
    ASSERT_EQ(scenario::can_merge_trial_ranges(parts), "") << name;
    const scenario::SweepResult merged = scenario::merge_trial_ranges(parts);
    expect_rows_bit_identical(full, merged, name);
  }
}

TEST(FaultModels, NoneAndAbsentFaultBlocksAreTheSameScenario) {
  // A spec that never mentions faults and a spec that says fault="none"
  // are the same scenario: identical parsed structs, identical serialized
  // bytes (no "fault" key is ever emitted for the trivial model — the
  // cache-key stability guarantee), and identical sweep results.
  const ScenarioSpec* preset = scenario::find_preset("ring-amos-yes");
  ASSERT_NE(preset, nullptr);
  const ScenarioSpec absent = shrunk(*preset, 16);
  ScenarioSpec explicit_none = absent;
  explicit_none.fault = "none";

  const std::string absent_json = scenario::spec_to_json(absent);
  EXPECT_EQ(scenario::spec_to_json(explicit_none), absent_json);
  EXPECT_EQ(absent_json.find("\"fault\""), std::string::npos);
  const ScenarioSpec reparsed = scenario::spec_from_json(absent_json);
  EXPECT_EQ(reparsed.fault, "none");
  EXPECT_TRUE(reparsed.fault_params.empty());

  const scenario::SweepResult a =
      scenario::run_sweep(scenario::compile(absent));
  const scenario::SweepResult b =
      scenario::run_sweep(scenario::compile(explicit_none));
  expect_rows_bit_identical(a, b, "none-vs-absent");
  // The trivial model leaves the fault counters untouched, so the
  // telemetry JSON stays byte-compatible with pre-fault shard files.
  EXPECT_EQ(a.rows[0].tally.telemetry.messages_dropped, 0u);
  EXPECT_EQ(a.rows[0].tally.telemetry.nodes_crashed, 0u);
  EXPECT_EQ(a.rows[0].tally.telemetry.edges_churned, 0u);
}

// Engine-path probe: every node broadcasts a non-empty message for
// kProbeRounds rounds, so a silent port can only be a realized fault, and
// records which of its ports were silent in each round it received.
constexpr int kProbeRounds = 8;

class SilenceProbe final : public local::NodeProgram {
 public:
  bool init(const local::NodeEnv& env) override {
    id_ = env.id;
    return false;
  }
  void send(int round, local::MessageWriter& out) override {
    (void)round;
    out.push(id_);
  }
  bool receive(int round, const local::Inbox& inbox) override {
    std::vector<bool>& row = silent.emplace_back();
    for (std::size_t p = 0; p < inbox.size(); ++p) {
      row.push_back(inbox[p].empty());
    }
    return round == kProbeRounds;
  }
  local::Label output() const override { return 0; }

  std::vector<std::vector<bool>> silent;  // [round - 1][port]

 private:
  std::uint64_t id_ = 0;
};

class SilenceProbeFactory final : public local::NodeProgramFactory {
 public:
  std::string name() const override { return "silence-probe"; }
  std::unique_ptr<local::NodeProgram> create() const override {
    return std::make_unique<SilenceProbe>();
  }
};

TEST(FaultEngine, RealizedFaultsMatchThePerEdgePredicates) {
  // The engine batches a round's link faults through a LinkTable and
  // draws drops per directed delivery; crash_round(), edge_down() and
  // drops_delivery() remain the definitions. Every silence the probe
  // hears, and every fault counter, must be what those predicates give,
  // port by port and round by round. One scratch serves every run, so a
  // table left over from an earlier model or graph would show.
  struct Case {
    const char* label;
    std::shared_ptr<const fault::FaultModel> model;
    bool fires;  // whether the model realizes any fault here
  };
  const Case cases[] = {
      {"churn 0.1", fault::make_churn(0.1), true},
      {"churn 0", fault::make_churn(0.0), false},
      {"churn 1", fault::make_churn(1.0), true},
      {"drop 0.3", fault::make_drop(0.3), true},
      {"crash 0.2", fault::make_crash(0.2, 6), true},
  };
  const graph::NodeId n = 40;
  local::EngineScratch scratch;
  const SilenceProbeFactory factory;
  for (const std::uint64_t seed : {11u, 12u}) {
    const std::pair<const char*, graph::Graph> graphs[] = {
        {"ring", graph::cycle(n)},
        {"tree", graph::random_tree_bounded(n, 3, seed)},
    };
    for (const auto& [graph_label, g] : graphs) {
      const local::Instance inst = local::make_instance(
          g, ident::random_sparse(n, 1, std::uint64_t{1} << 40, seed));
      const rand::PhiloxCoins coins(seed, rand::Stream::kFault);
      for (const Case& c : cases) {
        const std::string label = std::string(graph_label) + " / " +
                                  c.label + " / seed " +
                                  std::to_string(seed);
        const fault::FaultModel& model = *c.model;
        local::EngineOptions options;
        options.fault = &model;
        options.fault_coins = &coins;
        options.retain_programs = true;
        options.scratch = &scratch;
        const local::EngineResult result =
            local::run_engine(inst, factory, options);
        ASSERT_TRUE(result.completed) << label;
        ASSERT_EQ(result.rounds, kProbeRounds) << label;
        const std::uint64_t rounds = kProbeRounds;
        const auto dead_at = [&](graph::NodeId v, std::uint64_t round) {
          return model.crash_round(coins, inst.ids[v]) <= round;
        };

        std::uint64_t churned = 0;
        std::uint64_t dropped = 0;
        std::uint64_t crashed = 0;
        for (graph::NodeId v = 0; v < n; ++v) {
          if (dead_at(v, rounds)) ++crashed;
          const auto& probe =
              static_cast<const SilenceProbe&>(*result.programs[v]);
          // v receives in every round before its crash round.
          std::uint64_t alive_rounds = 0;
          while (alive_rounds < rounds && !dead_at(v, alive_rounds + 1)) {
            ++alive_rounds;
          }
          ASSERT_EQ(probe.silent.size(), alive_rounds)
              << label << ", node " << v;
          const auto nbrs = g.neighbors(v);
          for (std::uint64_t r = 1; r <= rounds; ++r) {
            for (std::size_t p = 0; p < nbrs.size(); ++p) {
              const graph::NodeId u = nbrs[p];
              const bool down =
                  model.edge_down(coins, inst.ids[v], inst.ids[u], r);
              if (down && v < u) ++churned;
              if (r > alive_rounds) continue;
              // A delivery from a live neighbor over an up link is lost
              // only by its drop draw.
              const bool sender_dead = dead_at(u, r);
              const bool drop =
                  !sender_dead && !down &&
                  model.drops_delivery(coins, inst.ids[u], inst.ids[v], r);
              if (drop) ++dropped;
              EXPECT_EQ(probe.silent[r - 1][p], sender_dead || down || drop)
                  << label << ", node " << v << ", port " << p << ", round "
                  << r;
            }
          }
        }
        EXPECT_EQ(result.telemetry.edges_churned, churned) << label;
        EXPECT_EQ(result.telemetry.messages_dropped, dropped) << label;
        EXPECT_EQ(result.telemetry.nodes_crashed, crashed) << label;
        EXPECT_EQ(churned + dropped + crashed > 0, c.fires) << label;
      }
    }
  }
}

TEST(FaultModels, SuccessIsMonotoneNonIncreasingInLossProbability) {
  // Resilience smoke on the amos yes side: stepping p-loss 0 -> 0.25 ->
  // 0.5 can only destroy accepting balls, never create them, so the
  // success count must not increase. (Not exact monotonicity per trial —
  // a statistical smoke over a fixed seed and trial budget.)
  const ScenarioSpec* preset = scenario::find_preset("ring-amos-yes");
  ASSERT_NE(preset, nullptr);
  std::uint64_t previous = 0;
  bool first = true;
  for (const double p_loss : {0.0, 0.25, 0.5}) {
    ScenarioSpec spec = shrunk(*preset, 300);
    spec.fault = "drop";
    spec.fault_params = {{"p-loss", p_loss}};
    ASSERT_EQ(scenario::validate(spec), "") << p_loss;
    const scenario::SweepResult result =
        scenario::run_sweep(scenario::compile(spec));
    const std::uint64_t successes = result.rows[0].tally.successes;
    if (!first) {
      EXPECT_LE(successes, previous) << "p-loss=" << p_loss;
    }
    previous = successes;
    first = false;
  }
  // The sweep actually degraded: at p-loss=0.5 some accepting balls died.
  EXPECT_LT(previous, 300u);
}

}  // namespace
