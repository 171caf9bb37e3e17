// derandomization_demo: Theorem 1's proof engine, run for real.
//
//   $ ./derandomization_demo
//
// Walks the proof's pipeline on concrete objects:
//   1. hard instances H_1..H_nu (consecutive rings, disjoint identities,
//      diameter >= D = 2*mu*(t+t')),
//   2. Claim-5 anchor selection u_i (the node whose FAR neighborhood
//      rejects most),
//   3. the double-subdivision + cycle glue,
//   4. the boosted failure: acceptance of D on C(glued G) collapses as nu
//      grows, contradicting any claimed success probability r — hence no
//      constant-round Monte-Carlo algorithm for the BPLD language exists
//      (here: 1-resilient ring 3-coloring).
// Also exports the nu = 3 glue as GraphViz DOT for inspection.
#include <fstream>
#include <iostream>

#include "core/boost_params.h"
#include "core/critical_strings.h"
#include "core/glue.h"
#include "core/hard_instances.h"
#include "decide/resilient_decider.h"
#include "decide/evaluate.h"
#include "decide/experiment_plans.h"
#include "graph/io.h"
#include "graph/metrics.h"
#include "scenario/registry.h"
#include "util/table.h"

int main() {
  using namespace lnc;

  // Components by name: the same catalogue lnc_sweep exposes.
  const auto base = scenario::make_language("coloring", {{"colors", 3}});
  const auto relaxed = scenario::make_language(
      "resilient-coloring", {{"colors", 3}, {"faults", 1}});
  const auto construction =
      scenario::make_construction("rand-coloring", {{"colors", 3}});
  const local::RandomizedBallAlgorithm& coloring =
      *construction->ball_algorithm();
  const auto decider_ptr =
      scenario::make_decider("resilient", base.get(), {{"faults", 1}});
  const decide::Decider& decider = *decider_ptr;
  const double p = decide::ResilientDecider::default_p(1);

  core::BoostParameters params;
  params.p = p;
  params.t = 0;
  params.t_prime = 1;
  params.r = 0.05;

  std::cout << "L = 1-resilient ring 3-coloring (in BPLD by Corollary 1)\n"
            << "C = zero-round uniform coloring, D = resilient decider\n"
            << "p = " << p << ", mu = " << params.mu()
            << ", D_min = " << params.min_diameter() << "\n\n";

  // Step 1-2: hard instances and Claim-5 anchors.
  const std::size_t nu = 5;
  const auto parts = core::claim2_sequence(nu, params.min_diameter());
  const stats::Estimate beta =
      core::estimate_beta(parts[0], coloring, *relaxed, 1500, 3);
  params.beta = beta.p_hat;
  std::cout << "measured beta (Claim 2 floor): " << beta.p_hat << "\n";

  std::vector<graph::NodeId> anchors;
  for (std::size_t i = 0; i < nu; ++i) {
    const auto scattered = graph::scattered_nodes(
        parts[i].g, 2 * 1, static_cast<std::size_t>(params.mu()));
    const core::Claim5Report report = core::verify_claim5(
        parts[i], coloring, decider, scattered, 1, params.beta, p,
        params.mu(), 400, 17 + i);
    anchors.push_back(report.best_anchor());
  }
  std::cout << "Claim-5 anchors: ";
  for (graph::NodeId u : anchors) std::cout << u << ' ';
  std::cout << "\n\n";

  // Step 3-4: glue prefixes of the sequence and measure the collapse.
  local::BatchRunner runner;
  util::Table table({"nu", "glued n", "accept (meas)", "theory ceiling"});
  for (std::size_t k = 2; k <= nu; ++k) {
    const std::span<const local::Instance> prefix(parts.data(), k);
    const std::span<const graph::NodeId> prefix_anchors(anchors.data(), k);
    const core::GluedInstance glued =
        core::theorem1_glue(prefix, prefix_anchors);
    const stats::Estimate accept =
        runner.run(decide::construct_then_decide_plan(
            "glued-accept", glued.instance, coloring, decider, 1200,
            100 + k));
    table.new_row()
        .add_cell(std::uint64_t{k})
        .add_cell(std::uint64_t{glued.instance.node_count()})
        .add_cell(accept.p_hat, 4)
        .add_cell(params.glued_acceptance_bound(k), 4);
    if (k == 3) {
      std::ofstream dot("glued_nu3.dot");
      graph::write_dot(dot, glued.instance.g);
      std::cout << "(wrote glued_nu3.dot for nu = 3)\n";
    }
  }
  table.print(std::cout);
  std::cout << "\nAcceptance collapses geometrically: a construction\n"
               "algorithm with success probability r would contradict\n"
               "this within nu' = " << params.nu_prime()
            << " glued instances (Theorem 1's final step).\n";
  return 0;
}
