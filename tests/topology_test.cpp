// The implicit-topology bit-identity contract (PR "Implicit giga-scale
// topologies"):
//
//   1. Per implicit-capable family, balls collected through the
//      ImplicitTopology equal — member for member, edge for edge, word
//      for word — balls collected from the materialized Graph of the
//      same (family, n, params, seed), and materialize() reproduces the
//      generator's graph exactly.
//   2. A full ball-mode sweep produces bit-identical tallies and
//      deterministic telemetry whether the grid point materializes or
//      streams, at 1 and at 8 threads — on one workload per way the
//      streaming loop's construction memo behaves (all hits, reuse
//      across torus rows, random misses and evictions, wrapping balls)
//      and under each fault model that censors balls.
//   3. On the ring the memo computes each construction output about
//      once per trial (its metrics counters say so).
//   4. Execution is representation, not semantics: all three Execution
//      values of one spec share a single serve cache key.
//   5. Validation rejects implicit execution for scenarios that cannot
//      stream, with actionable diagnostics; a fault model is never the
//      reason (faulty ball-mode specs stream bit-identically).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/ball.h"
#include "graph/implicit.h"
#include "local/batch_runner.h"
#include "obs/metrics.h"
#include "rand/splitmix.h"
#include "scenario/presets.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/spec_json.h"
#include "scenario/sweep.h"
#include "serve/cache_key.h"
#include "stats/threadpool.h"

namespace lnc {
namespace {

struct FamilyCase {
  const char* name;
  scenario::ParamMap params;  // must make build_implicit accept
};

std::vector<FamilyCase> implicit_families() {
  return {
      {"ring", {}},
      {"path", {}},
      {"grid", {{"random-ids", 0}}},
      {"torus", {{"random-ids", 0}}},
      {"hypercube", {{"random-ids", 0}}},
      {"binary-tree", {{"random-ids", 0}}},
      {"random-regular", {{"random-ids", 0}}},
      {"gnp", {{"random-ids", 0}}},
  };
}

void expect_balls_equal(const graph::BallView& a, const graph::BallView& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  EXPECT_EQ(a.structure_signature(), b.structure_signature()) << label;
  EXPECT_EQ(a.encoded_words(), b.encoded_words()) << label;
  for (graph::NodeId local = 0; local < a.size(); ++local) {
    ASSERT_EQ(a.to_original(local), b.to_original(local)) << label;
    ASSERT_EQ(a.distance(local), b.distance(local)) << label;
    ASSERT_EQ(a.host_degree(local), b.host_degree(local)) << label;
    const auto na = a.neighbors(local);
    const auto nb = b.neighbors(local);
    ASSERT_EQ(std::vector<graph::NodeId>(na.begin(), na.end()),
              std::vector<graph::NodeId>(nb.begin(), nb.end()))
        << label;
  }
}

TEST(ImplicitTopology, BallsMatchMaterializedPerFamily) {
  for (const FamilyCase& family : implicit_families()) {
    const scenario::TopologyEntry* entry =
        scenario::topologies().find(family.name);
    ASSERT_NE(entry, nullptr) << family.name;
    ASSERT_TRUE(entry->build_implicit) << family.name;
    const scenario::ParamMap merged =
        scenario::merged_params(entry->schema, family.params);
    for (const std::uint64_t n : {std::uint64_t{16}, std::uint64_t{256},
                                  std::uint64_t{4096}}) {
      const std::uint64_t seed = rand::mix_keys(1, n);
      const auto implicit = entry->build_implicit(n, merged, seed);
      ASSERT_NE(implicit, nullptr) << family.name;
      const local::Instance inst = entry->build(n, merged, seed);
      ASSERT_EQ(inst.g.node_count(), implicit->node_count()) << family.name;
      const graph::NodeId count = inst.g.node_count();

      // The synthesized neighborhoods materialize to the generator's
      // graph exactly (vacuous for gnp/random-regular, whose generators
      // already build through the sampler; the real content for the
      // analytic families).
      if (count <= 256) {
        const graph::Graph rebuilt = graph::materialize(*implicit);
        ASSERT_EQ(rebuilt.node_count(), count) << family.name;
        for (graph::NodeId v = 0; v < count; ++v) {
          const auto got = rebuilt.neighbors(v);
          const auto want = inst.g.neighbors(v);
          ASSERT_EQ(std::vector<graph::NodeId>(got.begin(), got.end()),
                    std::vector<graph::NodeId>(want.begin(), want.end()))
              << family.name << " n=" << n << " v=" << v;
        }
      }

      // Ball equality: every center at small sizes, strided beyond.
      const graph::NodeId stride = count <= 256 ? 1 : count / 61;
      graph::BallScratch graph_scratch;
      graph::BallScratch implicit_scratch;
      graph::BallView from_graph;
      graph::BallView from_implicit;
      for (int radius = 0; radius <= 2; ++radius) {
        for (graph::NodeId v = 0; v < count; v += stride) {
          from_graph.collect(inst.g, v, radius, graph_scratch);
          from_implicit.collect(*implicit, v, radius, implicit_scratch);
          expect_balls_equal(
              from_graph, from_implicit,
              std::string(family.name) + " n=" + std::to_string(n) +
                  " v=" + std::to_string(v) +
                  " r=" + std::to_string(radius));
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

scenario::ScenarioSpec streaming_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "implicit-identity";
  spec.topology = "ring";
  spec.language = "mis";
  spec.construction = "luby-ball";
  spec.decider = "lcl";
  spec.params["phases"] = 4;
  spec.n_grid = {4096};
  spec.trials = 64;
  spec.base_seed = 7;
  return spec;
}

void expect_sweeps_equal(const scenario::SweepResult& a,
                         const scenario::SweepResult& b,
                         const std::string& label) {
  ASSERT_EQ(a.rows.size(), b.rows.size()) << label;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    const scenario::SweepRow& ra = a.rows[i];
    const scenario::SweepRow& rb = b.rows[i];
    EXPECT_EQ(ra.actual_n, rb.actual_n) << label;
    EXPECT_EQ(ra.tally.trials, rb.tally.trials) << label;
    EXPECT_EQ(ra.tally.successes, rb.tally.successes) << label;
    EXPECT_EQ(ra.tally.telemetry.messages_sent,
              rb.tally.telemetry.messages_sent)
        << label;
    EXPECT_EQ(ra.tally.telemetry.words_sent, rb.tally.telemetry.words_sent)
        << label;
    EXPECT_EQ(ra.tally.telemetry.rounds_executed,
              rb.tally.telemetry.rounds_executed)
        << label;
    EXPECT_EQ(ra.tally.telemetry.ball_expansions,
              rb.tally.telemetry.ball_expansions)
        << label;
    EXPECT_EQ(ra.tally.telemetry.messages_dropped,
              rb.tally.telemetry.messages_dropped)
        << label;
    EXPECT_EQ(ra.tally.telemetry.nodes_crashed,
              rb.tally.telemetry.nodes_crashed)
        << label;
    EXPECT_EQ(ra.tally.telemetry.edges_churned,
              rb.tally.telemetry.edges_churned)
        << label;
  }
}

/// One streaming workload per way the construction memo can behave.
struct StreamingCase {
  const char* label;
  const char* topology;
  std::uint64_t n;
  int phases;
  std::uint64_t trials;
};

scenario::ScenarioSpec streaming_spec(const StreamingCase& c) {
  scenario::ScenarioSpec spec = streaming_spec();
  spec.topology = c.topology;
  spec.params["random-ids"] = 0;
  spec.params["phases"] = c.phases;
  spec.n_grid = {c.n};
  spec.trials = c.trials;
  return spec;
}

// Runs `spec` materialized, then implicit sequentially and on `pool`, and
// expects bit-identical sweeps.
void expect_implicit_matches_materialized(scenario::ScenarioSpec spec,
                                          const stats::ThreadPool& pool) {
  spec.execution = scenario::Execution::kMaterialized;
  ASSERT_EQ(scenario::validate(spec), "");
  const scenario::SweepResult reference =
      scenario::run_sweep(scenario::compile(spec));
  ASSERT_TRUE(reference.complete());
  // A degenerate tally (0 or all successes) would let an
  // always-reject/accept bug slip through the comparison.
  ASSERT_GT(reference.rows[0].tally.successes, 0u);
  ASSERT_LT(reference.rows[0].tally.successes,
            reference.rows[0].tally.trials);
  if (spec.fault != "none") {
    // A fault model that realized nothing would compare fault-free runs.
    const local::Telemetry& t = reference.rows[0].tally.telemetry;
    ASSERT_GT(t.messages_dropped + t.nodes_crashed + t.edges_churned, 0u);
  }

  spec.execution = scenario::Execution::kImplicit;
  ASSERT_EQ(scenario::validate(spec), "");
  const scenario::CompiledScenario compiled = scenario::compile(spec);
  ASSERT_TRUE(compiled.points()[0].instance->is_implicit());

  expect_sweeps_equal(reference, scenario::run_sweep(compiled),
                      "implicit sequential");
  scenario::SweepOptions options;
  options.pool = &pool;
  expect_sweeps_equal(reference, scenario::run_sweep(compiled, options),
                      "implicit 8 threads");
}

TEST(ImplicitTopology, SweepBitIdenticalAcrossExecutionAndThreads) {
  const stats::ThreadPool pool(8);
  for (const StreamingCase& c : {
           // Every reuse hits: a decision ball's members were the
           // previous node's members.
           StreamingCase{"ring: every reuse hits", "ring", 4096, 4, 64},
           // Reuse at id distance +-1 and +-64 (the row above/below).
           StreamingCase{"torus: reuse across rows", "torus", 4096, 5, 8},
           // Random neighbours: mostly misses and slot evictions. Its
           // balls span most of the graph, so 4 trials (3 successes)
           // keep the test fast.
           StreamingCase{"random-regular: misses and evictions",
                         "random-regular", 4096, 5, 4},
           // Balls wrap around, and n is below the memo size.
           StreamingCase{"ring n=5: wrapping balls", "ring", 5, 2, 16},
           // n is not a multiple of the 256-node coin block: a partial
           // last block, and coin windows clamped at identities 1 and n
           // that the wrapping balls read past (61 of 64 succeed).
           StreamingCase{"ring n=1000: partial coin block", "ring", 1000, 4,
                         64},
       }) {
    SCOPED_TRACE(c.label);
    expect_implicit_matches_materialized(streaming_spec(c), pool);
  }
}

// Constructions with no coin prefix (rand-coloring, select-id-below)
// stream through an empty coin table, every draw falling back to Philox,
// and the deciders that draw their own coins (slack, amos, resilient) key
// them by the center's identity, computed on implicit instances.
TEST(ImplicitTopology, CoinPrefixZeroConstructionsStreamBitIdentically) {
  const stats::ThreadPool pool(8);
  scenario::ScenarioSpec slack = *scenario::find_preset("ring-slack-coloring");
  slack.n_grid = {1000};
  scenario::ScenarioSpec amos = *scenario::find_preset("ring-amos-yes");
  amos.n_grid = {1000};
  scenario::ScenarioSpec resilient = slack;
  resilient.decider = "resilient";
  resilient.params = {{"colors", 3}};
  resilient.n_grid = {12};
  for (scenario::ScenarioSpec spec : {slack, amos, resilient}) {
    SCOPED_TRACE(spec.name + " / " + spec.decider);
    spec.trials = 40;
    expect_implicit_matches_materialized(spec, pool);
  }
}

// Faulty ball-mode specs stream too: the streaming loop censors both
// phases with the trial's realized fault subgraph and charges it once per
// trial, as the materialized construct-then-evaluate trial does.
TEST(ImplicitTopology, FaultySpecsStreamBitIdentically) {
  const stats::ThreadPool pool(8);
  scenario::ScenarioSpec drop = *scenario::find_preset("ring-amos-drop");
  drop.n_grid = {1000};
  drop.trials = 40;
  scenario::ScenarioSpec crash =
      streaming_spec({"ring under crash", "ring", 1000, 4, 128});
  crash.fault = "crash";
  crash.fault_params = {{"p-crash", 0.05}};
  scenario::ScenarioSpec churn =
      streaming_spec({"torus under churn", "torus", 1024, 4, 8});
  churn.fault = "churn";
  churn.fault_params = {{"p-churn", 0.1}};
  for (const scenario::ScenarioSpec& spec : {drop, crash, churn}) {
    SCOPED_TRACE(spec.topology + " / " + spec.fault);
    expect_implicit_matches_materialized(spec, pool);
  }
}

TEST(ImplicitTopology, RingComputesEachConstructionOutputOnce) {
  // One node-range part, then three full parts and a partial one: each
  // part starts with a cold memo. A part call runs a batch of trials, and
  // one lookup serves every trial of the batch: 8 trials on 4 workers run
  // as 4 batches of 2, and 2 trials of 4 parts as one batch.
  const std::uint64_t parted = 3 * std::uint64_t{local::kPartNodes} + 5;
  const stats::ThreadPool pool(4);
  scenario::SweepOptions options;
  options.pool = &pool;
  for (const auto& [n, trials] :
       {std::pair<std::uint64_t, std::uint64_t>{4096, 8}, {parted, 2}}) {
    SCOPED_TRACE(testing::Message() << "n = " << n);
    scenario::ScenarioSpec spec = streaming_spec();
    spec.execution = scenario::Execution::kImplicit;
    spec.n_grid = {n};
    spec.trials = trials;
    obs::set_metrics_enabled(true);
    const scenario::SweepResult result =
        scenario::run_sweep(scenario::compile(spec), options);
    obs::set_metrics_enabled(false);

    const auto& counters = result.metrics.counters();
    ASSERT_EQ(counters.count("stream_construction_computes"), 1u);
    ASSERT_EQ(counters.count("stream_construction_reuses"), 1u);
    const std::uint64_t computes = counters.at("stream_construction_computes");
    const std::uint64_t reuses = counters.at("stream_construction_reuses");
    const std::uint64_t parts =
        (n + local::kPartNodes - 1) / local::kPartNodes;
    const std::uint64_t batches =
        local::cut_trials({0, trials}, local::kBatchTrials,
                          pool.thread_count(), parts)
            .count;
    ASSERT_LT(batches, trials);
    // Per batch: one output per node, plus the two wrap-around members
    // (node n-1 and node 0) whose slots were evicted by the time they
    // recur, plus the two nodes at each part boundary, which the parts on
    // both sides compute; every other lookup of the sum over v of
    // |B(v, 1)| = 3n hits.
    EXPECT_LE(computes, batches * (n + 2 + 2 * (parts - 1)));
    EXPECT_EQ(computes + reuses, batches * 3 * n);
  }
}

TEST(ImplicitTopology, ExecutionSharesOneCacheKey) {
  scenario::ScenarioSpec spec = streaming_spec();
  spec.execution = scenario::Execution::kAuto;
  const serve::CacheKey auto_key = serve::cache_key(spec);
  spec.execution = scenario::Execution::kMaterialized;
  EXPECT_EQ(serve::cache_key(spec), auto_key);
  spec.execution = scenario::Execution::kImplicit;
  EXPECT_EQ(serve::cache_key(spec), auto_key);

  // The normal form strips execution outright...
  EXPECT_EQ(scenario::cache_normal_form(spec).execution,
            scenario::Execution::kAuto);
  // ...and kAuto never reaches the spec JSON, so pre-existing keys (and
  // files) are byte-unchanged.
  EXPECT_EQ(scenario::spec_to_json(streaming_spec()).find("execution"),
            std::string::npos);
  // Forced execution round-trips field for field through spec JSON.
  const scenario::ScenarioSpec reparsed =
      scenario::spec_from_json(scenario::spec_to_json(spec));
  EXPECT_EQ(reparsed.execution, scenario::Execution::kImplicit);
}

TEST(ImplicitTopology, ValidationRejectsUnstreamableSpecs) {
  // Every rule names what is missing, with or without a fault model: a
  // faulty spec streams whenever its fault-free twin does.
  for (const char* fault : {"none", "drop"}) {
    SCOPED_TRACE(fault);
    auto implicit_spec = [fault] {
      scenario::ScenarioSpec spec = streaming_spec();
      spec.execution = scenario::Execution::kImplicit;
      spec.fault = fault;
      return spec;
    };

    // Engine-backed construction cannot stream.
    scenario::ScenarioSpec spec = implicit_spec();
    spec.construction = "luby-mis";
    spec.params.erase("phases");
    EXPECT_NE(scenario::validate(spec).find("engine-backed"),
              std::string::npos);

    // Families without a local neighborhood oracle cannot stream.
    spec = implicit_spec();
    spec.topology = "random-tree";
    EXPECT_NE(scenario::validate(spec).find("no implicit representation"),
              std::string::npos);

    // Implicit instances compute consecutive identities.
    spec = implicit_spec();
    spec.params["random-ids"] = 1;
    EXPECT_NE(scenario::validate(spec).find("random-ids"),
              std::string::npos);

    // The exact pseudo-decider reads an O(n) labeling.
    spec = implicit_spec();
    spec.decider = "exact";
    EXPECT_NE(scenario::validate(spec).find("local decider"),
              std::string::npos);

    // Engine exec modes need a materialized graph to step.
    spec = implicit_spec();
    spec.mode = local::ExecMode::kMessages;
    EXPECT_NE(scenario::validate(spec).find("mode=balls"),
              std::string::npos);

    // kAuto beyond the cap demands an implicit-capable scenario...
    spec = implicit_spec();
    spec.execution = scenario::Execution::kAuto;
    spec.topology = "random-tree";
    spec.n_grid = {scenario::kMaterializeCap + 1};
    EXPECT_NE(scenario::validate(spec).find("materialization cap"),
              std::string::npos);

    // ...and a streamable spec validates clean there without building
    // anything of that size.
    spec = implicit_spec();
    spec.execution = scenario::Execution::kAuto;
    spec.n_grid = {scenario::kMaterializeCap + 1};
    EXPECT_EQ(scenario::validate(spec), "");

    // Node ids are 32-bit on every path.
    spec = implicit_spec();
    spec.execution = scenario::Execution::kAuto;
    spec.n_grid = {std::uint64_t{1} << 32};
    EXPECT_NE(scenario::validate(spec).find("NodeId"), std::string::npos);
  }
}

TEST(ImplicitTopology, FaultyPresetValidatesForImplicitExecution) {
  scenario::ScenarioSpec spec = *scenario::find_preset("ring-amos-drop");
  spec.execution = scenario::Execution::kImplicit;
  EXPECT_EQ(scenario::validate(spec), "");
}

}  // namespace
}  // namespace lnc
