// E6 + E7 — error boosting by combining hard instances (Claim 3 and
// Theorem 1's glue).
//
// Setup mirrors the proof: C = zero-round uniform 3-coloring (t = 0),
// L = 1-resilient proper 3-coloring, D = the Corollary-1 decider (t' = 1,
// p in (2^{-1/1}, 2^{-1/2})). beta is measured on a single hard ring.
//
// E6 (Claim 3): on the DISJOINT UNION of nu hard instances,
//   Pr[D accepts C(G)] <= (1 - beta*p)^nu  — geometric decay in nu.
// E7 (Theorem 1): on the CONNECTED glue the decay persists, and the glue
//   preserves the promise: connected, max degree <= 3, biconnected.
// Both tables also print Eq. (3)'s nu / the nu' formula: how many
// instances suffice to push acceptance below any target r.
#include "bench_common.h"

#include "core/boost_params.h"
#include "core/glue.h"
#include "core/hard_instances.h"
#include "decide/experiment_plans.h"
#include "decide/resilient_decider.h"
#include "graph/metrics.h"
#include "graph/planarity.h"
#include "scenario/registry.h"
#include "stats/threadpool.h"

namespace {

using namespace lnc;

/// All components resolved once from the registry.
struct Setup {
  std::unique_ptr<lang::Language> base =
      scenario::make_language("coloring", {{"colors", 3}});
  std::unique_ptr<lang::Language> relaxed = scenario::make_language(
      "resilient-coloring", {{"colors", 3}, {"faults", 1}});
  std::unique_ptr<scenario::Construction> construction =
      scenario::make_construction("rand-coloring", {{"colors", 3}});
  const local::RandomizedBallAlgorithm& coloring =
      *construction->ball_algorithm();
  std::unique_ptr<decide::Decider> decider =
      scenario::make_decider("resilient", base.get(), {{"faults", 1}});
  stats::ThreadPool pool;
  local::BatchRunner runner{&pool};
};

stats::Estimate acceptance(Setup& setup, const local::Instance& inst,
                           std::uint64_t tag) {
  return setup.runner.run(decide::construct_then_decide_plan(
      "glue-acceptance", inst, setup.coloring, *setup.decider, 1500, tag));
}

void print_tables() {
  bench::print_header(
      "E6/E7: boosting C's failure by combining hard instances",
      "Claim 3 and Theorem 1",
      "Acceptance of D on C(combined instance) decays geometrically with\n"
      "the number of combined hard instances, in the disjoint union AND in\n"
      "the connected Theorem-1 glue; the glue preserves the F_k promise.");

  Setup setup;
  const double p = decide::ResilientDecider::default_p(1);

  // Paper-faithful parameters: diameter floor D = 2*mu*(t+t'), t=0, t'=1.
  core::BoostParameters params;
  params.p = p;
  params.t = 0;
  params.t_prime = 1;
  params.r = 0.05;  // example target success probability for C

  // For the DECAY TABLE we use the smallest legal hard rings (n = 6):
  // larger rings make the per-part acceptance so small that every row
  // reads 0.0000; E8 uses the full Claim-4 diameter D. beta is measured
  // on the table's part size (Claim 2 only promises a positive floor).
  const std::uint64_t min_diameter = 2;
  const auto single = core::claim2_sequence(1, min_diameter);
  const stats::Estimate beta_est = core::estimate_beta(
      single[0], setup.coloring, *setup.relaxed, 3000, 7, &setup.pool);
  params.beta = beta_est.p_hat;

  std::cout << "decider p = " << util::format_double(p, 4)
            << ", mu = " << params.mu()
            << ", paper diameter floor D = 2*mu*(t+t') = "
            << params.min_diameter()
            << "; decay-table part size n = 6, measured beta = "
            << util::format_double(params.beta, 4) << " ["
            << util::format_double(beta_est.ci.lo, 4) << ", "
            << util::format_double(beta_est.ci.hi, 4) << "]\n"
            << "Eq. (3) nu for r = 0.05: " << params.nu()
            << "; nu' (glued) = " << params.nu_prime() << "\n\n";

  util::Table table({"nu", "accept (disjoint)", "(1-beta*p)^nu bound",
                     "accept (glued)", "glued bound", "glue degree<=3",
                     "glue biconnected", "glue planar"});
  for (std::size_t nu : {1u, 2u, 3u, 4u, 6u, 8u}) {
    const auto parts = core::claim2_sequence(nu, min_diameter);
    const core::GluedInstance uni = core::disjoint_union_instances(parts);
    const stats::Estimate disjoint_acc =
        acceptance(setup, uni.instance, 100 + nu);

    std::string glued_acc = "-";
    std::string degree_ok = "-";
    std::string biconn = "-";
    std::string planar = "-";
    std::string glued_bound = "-";
    if (nu >= 2) {
      std::vector<graph::NodeId> anchors(parts.size(), 0);
      const core::GluedInstance glued = core::theorem1_glue(parts, anchors);
      const stats::Estimate acc = acceptance(setup, glued.instance, 200 + nu);
      glued_acc = util::format_double(acc.p_hat, 4);
      degree_ok = glued.instance.g.max_degree() <= 3 ? "yes" : "NO";
      biconn = graph::is_biconnected(glued.instance.g) ? "yes" : "NO";
      planar = graph::is_planar(glued.instance.g) ? "yes" : "NO";
      glued_bound = util::format_double(params.glued_acceptance_bound(nu), 4);
    }
    table.new_row()
        .add_cell(std::uint64_t{nu})
        .add_cell(disjoint_acc.p_hat, 4)
        .add_cell(params.disjoint_acceptance_bound(nu), 4)
        .add_cell(glued_acc)
        .add_cell(glued_bound)
        .add_cell(degree_ok)
        .add_cell(biconn)
        .add_cell(planar);
  }
  bench::print_table(table);
}

}  // namespace

LNC_BENCH_MAIN(print_tables)
