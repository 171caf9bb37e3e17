// Cross-module integration tests: full pipelines combining construction
// algorithms, languages, deciders, and the Theorem-1 machinery — each one
// a miniature of an E-series experiment.
#include <gtest/gtest.h>

#include <cmath>

#include "algo/cole_vishkin.h"
#include "algo/luby_mis.h"
#include "algo/rand_coloring.h"
#include "algo/weak_color_mc.h"
#include "core/boost_params.h"
#include "core/critical_strings.h"
#include "core/glue.h"
#include "core/hard_instances.h"
#include "decide/evaluate.h"
#include "decide/experiment_plans.h"
#include "decide/lcl_decider.h"
#include "decide/resilient_decider.h"
#include "graph/generators.h"
#include "graph/metrics.h"
#include "lang/coloring.h"
#include "lang/mis.h"
#include "lang/domset.h"
#include "lang/relax.h"
#include "lang/weak_coloring.h"
#include "local/experiment.h"
#include "util/logstar.h"

namespace lnc {
namespace {

// E3 miniature: construct with Cole-Vishkin, check with the LD decider —
// the classic "construction in O(log* n), verification in 1 round" pair.
TEST(Pipeline, ColeVishkinPlusLclDecider) {
  const lang::ProperColoring lang(3);
  const decide::LclDecider decider(lang);
  const rand::PhiloxCoins unread(0, rand::Stream::kDecision);  // q = 0
  for (graph::NodeId n : {16u, 64u, 256u}) {
    const local::Instance inst = core::consecutive_ring(n);
    const local::EngineResult constructed =
        algo::run_cole_vishkin(inst, util::floor_log2(n) + 1);
    ASSERT_TRUE(constructed.completed);
    EXPECT_TRUE(decide::evaluate(inst, constructed.output, decider, unread)
                    .accepted);
    // Rounds stay tiny while n explodes (log* signature).
    EXPECT_LE(constructed.rounds, 9);
  }
}

// E2 miniature: the zero-round random coloring solves eps-slack coloring
// with probability -> 1 (randomization HELPS for slack).
TEST(Pipeline, RandomColoringSolvesSlackWithHighProbability) {
  const lang::ProperColoring base(3);
  const lang::EpsSlack slack(base, 0.55);
  const algo::UniformRandomColoring coloring(3);
  const local::Instance inst = core::consecutive_ring(120);
  local::BatchRunner runner;
  auto contains = [](const lang::Language& language) {
    return [&language](const local::Instance& instance,
                       const local::Labeling& y) {
      return language.contains(instance, y);
    };
  };
  const stats::Estimate success = runner.run(local::construction_plan(
      "slack-0.55", inst, coloring, contains(slack), 400, 21));
  // Expected bad-ball fraction ~ 5/9 < 0.55... per-node bad probability is
  // 1 - (2/3)^2 = 5/9 ~ 0.5556 with eps = 0.55 slightly below the mean, so
  // success should be near 1/2; use a slack above the mean instead:
  const lang::EpsSlack roomy(base, 0.65);
  const stats::Estimate roomy_success = runner.run(local::construction_plan(
      "slack-0.65", inst, coloring, contains(roomy), 400, 22));
  EXPECT_GT(roomy_success.ci.lo, 0.9);
  (void)success;
}

// E4/E6 miniature: the same random coloring FAILS f-resilient coloring
// essentially always on big rings (randomization does NOT help), and the
// resilient decider catches it with probability >= its guarantee.
TEST(Pipeline, RandomColoringFailsResilientAndGetsCaught) {
  const lang::ProperColoring base(3);
  const lang::FResilient relaxed(base, 2);
  const algo::UniformRandomColoring coloring(3);
  const decide::ResilientDecider decider(base, 2);
  const local::Instance inst = core::consecutive_ring(60);

  local::BatchRunner runner;
  const stats::Estimate caught = runner.run(local::custom_plan(
      "resilient-caught", 600, 31, [&](const local::TrialEnv& env) {
        const rand::PhiloxCoins c_coins = env.construction_coins();
        const rand::PhiloxCoins d_coins = env.decision_coins();
        local::Labeling& y = env.arena->labeling();
        local::run_ball_algorithm_into(inst, coloring, c_coins, y);
        if (relaxed.contains(inst, y)) return false;  // C got lucky
        return !decide::evaluate(inst, y, decider, d_coins).accepted;
      }));
  // Pr[C fails AND D notices] >= beta * p with beta ~ 1 here and
  // p in (2^{-1/2}, 2^{-1/3}) ~ 0.73; allow generous slack.
  EXPECT_GT(caught.ci.lo, 0.5);
}

// E6 miniature: Claim 3's boosting on disjoint unions — acceptance of
// D on C(union of k hard instances) decays geometrically in k.
TEST(Pipeline, DisjointUnionBoostsRejection) {
  const lang::ProperColoring base(3);
  const algo::UniformRandomColoring coloring(3);
  const decide::ResilientDecider decider(base, 1);

  local::BatchRunner runner;
  auto acceptance_for = [&](std::size_t instance_count) {
    const auto parts = core::claim2_sequence(instance_count, 5);
    const core::GluedInstance combined =
        core::disjoint_union_instances(parts);
    return runner.run(decide::construct_then_decide_plan(
        "disjoint-union-accept", combined.instance, coloring, decider, 500,
        41));
  };
  const stats::Estimate one = acceptance_for(1);
  const stats::Estimate three = acceptance_for(3);
  const stats::Estimate six = acceptance_for(6);
  EXPECT_GT(one.p_hat, three.p_hat);
  EXPECT_GE(three.p_hat + 0.02, six.p_hat);  // monotone within noise
  EXPECT_LT(six.p_hat, 0.1);                 // strong boosting by k = 6
}

// E7 miniature: the same boosting survives the CONNECTED glue.
TEST(Pipeline, ConnectedGlueBoostsRejection) {
  const lang::ProperColoring base(3);
  const algo::UniformRandomColoring coloring(3);
  const decide::ResilientDecider decider(base, 1);

  local::BatchRunner runner;
  auto acceptance_for = [&](std::size_t instance_count) {
    const auto parts = core::claim2_sequence(instance_count, 5);
    std::vector<graph::NodeId> anchors(parts.size(), 0);
    const core::GluedInstance glued = core::theorem1_glue(parts, anchors);
    EXPECT_TRUE(graph::is_connected(glued.instance.g));
    return runner.run(decide::construct_then_decide_plan(
        "glued-accept", glued.instance, coloring, decider, 500, 51));
  };
  const stats::Estimate two = acceptance_for(2);
  const stats::Estimate five = acceptance_for(5);
  EXPECT_GT(two.p_hat, five.p_hat - 0.02);
  EXPECT_LT(five.p_hat, 0.15);
}

// Weak coloring round-trip: Monte-Carlo construction + LD decision — the
// "both constructible and decidable in constant time" cell of the paper's
// 2x2 table (section 2.2.2).
TEST(Pipeline, WeakColoringConstructAndDecide) {
  const lang::WeakColoring lang(2);
  const decide::LclDecider decider(lang);
  const rand::PhiloxCoins unread(0, rand::Stream::kDecision);  // q = 0
  const local::Instance inst = core::consecutive_ring(40);
  const std::uint64_t trials = 60;
  local::BatchRunner runner;
  const stats::Estimate agreement = runner.run(local::custom_plan(
      "weak-color-roundtrip", trials, 100, [&](const local::TrialEnv& env) {
        const rand::PhiloxCoins coins = env.construction_coins();
        const local::EngineResult result =
            algo::run_weak_color_mc(inst, coins, 6);
        const bool member = lang.contains(inst, result.output);
        const bool accepted =
            decide::evaluate(inst, result.output, decider, unread).accepted;
        return member == accepted;  // LD decider is exact
      }));
  EXPECT_EQ(agreement.successes, trials);
}

// Classic cross-language fact the library should witness: every maximal
// independent set is a minimal dominating set (maximality gives
// domination; independence makes every member its own private witness).
// Luby's output must therefore satisfy BOTH languages.
TEST(Pipeline, LubyMisIsAlsoMinimalDominatingSet) {
  const lang::MaximalIndependentSet mis;
  const lang::MinimalDominatingSet mds;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const local::Instance inst = local::make_instance(
        graph::random_regular(40, 3, seed),
        ident::random_permutation(40, seed));
    const rand::PhiloxCoins coins(seed * 97 + 5,
                                  rand::Stream::kConstruction);
    const local::EngineResult result = algo::run_luby_mis(inst, coins);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(mis.contains(inst, result.output));
    EXPECT_TRUE(mds.contains(inst, result.output));
  }
}

// Claim 5 end-to-end on one hard instance: some scattered node u has
// far-rejection probability >= beta(1-p)/mu.
TEST(Pipeline, Claim5FindsAGoodAnchor) {
  const lang::ProperColoring base(3);
  const lang::FResilient relaxed(base, 1);
  const algo::UniformRandomColoring coloring(3);
  const decide::ResilientDecider decider(base, 1);
  const local::Instance inst = core::consecutive_ring(48);

  const double p = decider.p();
  const stats::Estimate beta_est =
      core::estimate_beta(inst, coloring, relaxed, 500, 61);
  core::BoostParameters params;
  params.r = 0.01;  // nominal; only mu matters here
  params.p = p;
  params.beta = beta_est.p_hat;
  params.t = 0;
  params.t_prime = 1;
  const std::uint64_t mu = params.mu();

  const int exclusion = 1;  // t + t'
  const auto scattered = graph::scattered_nodes(
      inst.g, 2 * exclusion, static_cast<std::size_t>(mu));
  ASSERT_GE(scattered.size(), 1u);

  const core::Claim5Report report =
      core::verify_claim5(inst, coloring, decider, scattered, exclusion,
                          beta_est.p_hat, p, mu, 600, 71);
  EXPECT_TRUE(report.exists_above_bound());
  // The best anchor is a legal node of the instance.
  EXPECT_LT(report.best_anchor(), inst.node_count());
}

}  // namespace
}  // namespace lnc
