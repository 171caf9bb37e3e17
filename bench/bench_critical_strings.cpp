// E8 — Claims 4 and 5: the "far from u" machinery that makes the glue
// work for BPLD languages.
//
// On one hard instance H with the paper's diameter floor D = 2*mu*(t+t'):
//   * a scattered set S of mu nodes pairwise at distance > 2(t+t');
//   * for fixed failing sigma: some u in S has
//       Pr[D accepts C_sigma(H) far from u] < p            (Claim 4);
//   * critical strings are geometrically confined and pairwise disjoint
//     across S (the pigeonhole mu(2p-1) > 1);
//   * over both randomness sources, some u has
//       Pr[D rejects C(H) far from u] >= beta(1-p)/mu      (Claim 5).
#include "bench_common.h"

#include <algorithm>

#include "core/boost_params.h"
#include "core/critical_strings.h"
#include "core/hard_instances.h"
#include "decide/resilient_decider.h"
#include "graph/metrics.h"
#include "scenario/registry.h"
#include "stats/threadpool.h"

namespace {

using namespace lnc;

void print_tables() {
  bench::print_header(
      "E8: far-from-u acceptance, critical strings, Claim 5 anchors",
      "Theorem 1 proof, Claims 4 and 5",
      "Fix sigma in Rand(C) with C_sigma(H) not in L; then sample sigma'\n"
      "in Rand(D). Measured: far-acceptance per u in S, criticality\n"
      "counts with zero overlaps, and far-rejection vs beta(1-p)/mu.");

  const auto base = scenario::make_language("coloring", {{"colors", 3}});
  const auto relaxed_lang = scenario::make_language(
      "resilient-coloring", {{"colors", 3}, {"faults", 1}});
  const lang::Language& relaxed = *relaxed_lang;
  const auto construction =
      scenario::make_construction("rand-coloring", {{"colors", 3}});
  const local::RandomizedBallAlgorithm& coloring =
      *construction->ball_algorithm();
  const auto decider_ptr =
      scenario::make_decider("resilient", base.get(), {{"faults", 1}});
  const decide::Decider& decider = *decider_ptr;
  const stats::ThreadPool pool;
  const double p = decide::ResilientDecider::default_p(1);

  core::BoostParameters params;
  params.p = p;
  params.t = 0;
  params.t_prime = 1;
  params.r = 0.05;
  const std::uint64_t mu = params.mu();
  const int exclusion = 1;  // t + t'

  // Hard ring with the paper's diameter: D = 2*mu*(t+t').
  const auto parts = core::claim2_sequence(1, params.min_diameter());
  const local::Instance& inst = parts[0];
  const stats::Estimate beta_est =
      core::estimate_beta(inst, coloring, relaxed, 2000, 3, &pool);
  params.beta = beta_est.p_hat;

  const auto scattered = graph::scattered_nodes(
      inst.g, 2 * exclusion, static_cast<std::size_t>(mu));

  std::cout << "p = " << util::format_double(p, 4) << ", mu = " << mu
            << ", mu*(2p-1) = "
            << util::format_double(static_cast<double>(mu) * (2 * p - 1), 4)
            << " (pigeonhole > 1: "
            << (core::mu_pigeonhole_holds(p) ? "yes" : "boundary") << ")\n"
            << "instance: ring n = " << inst.node_count()
            << ", |S| = " << scattered.size()
            << ", beta = " << util::format_double(params.beta, 4) << "\n\n";

  // Claim 4 for three fixed failing sigmas.
  util::Table claim4({"sigma", "min far-accept over S",
                      "max far-accept over S", "exists u with < p?"});
  int found = 0;
  for (std::uint64_t sigma = 1; sigma < 200 && found < 3; ++sigma) {
    const local::Labeling output =
        core::run_fixed_construction(inst, coloring, sigma);
    if (relaxed.contains(inst, output)) continue;  // need a failing sigma
    ++found;
    const core::Claim4Report report =
        core::verify_claim4(inst, output, decider, scattered, exclusion, p,
                            1200, sigma, &pool);
    double lo = 1.0;
    double hi = 0.0;
    for (const auto& est : report.far_accept) {
      lo = std::min(lo, est.p_hat);
      hi = std::max(hi, est.p_hat);
    }
    claim4.new_row()
        .add_cell(sigma)
        .add_cell(lo, 4)
        .add_cell(hi, 4)
        .add_cell(report.exists_below_p() ? "yes" : "NO");
  }
  bench::print_table(claim4);

  // Critical-string disjointness for the first failing sigma.
  for (std::uint64_t sigma = 1; sigma < 200; ++sigma) {
    const local::Labeling output =
        core::run_fixed_construction(inst, coloring, sigma);
    if (relaxed.contains(inst, output)) continue;
    const core::CriticalStringsReport report =
        core::verify_critical_strings(inst, output, decider, scattered,
                                      exclusion, 2000, 11);
    util::Table crit({"u (node)", "critical strings", "of trials"});
    for (std::size_t j = 0; j < scattered.size(); ++j) {
      crit.new_row()
          .add_cell(std::uint64_t{scattered[j]})
          .add_cell(report.critical_for[j])
          .add_cell(report.trials);
    }
    bench::print_table(crit);
    std::cout << "multi-critical strings (must be 0): "
              << report.multi_critical
              << "; escaped rejections (must be 0): "
              << report.escaped_reject << "\n\n";
    break;
  }

  // Claim 5: far-rejection per u against the beta(1-p)/mu floor.
  const core::Claim5Report claim5 =
      core::verify_claim5(inst, coloring, decider, scattered, exclusion,
                          params.beta, p, mu, 2500, 13, &pool);
  util::Table c5({"u (node)", "far-reject (meas)", "beta(1-p)/mu bound"});
  for (std::size_t j = 0; j < claim5.scattered.size(); ++j) {
    c5.new_row()
        .add_cell(std::uint64_t{claim5.scattered[j]})
        .add_cell(claim5.far_reject[j].p_hat, 4)
        .add_cell(claim5.bound, 4);
  }
  bench::print_table(c5);
  std::cout << "exists u above the bound: "
            << (claim5.exists_above_bound() ? "yes" : "NO")
            << "; best anchor: node " << claim5.best_anchor() << "\n\n";
}

}  // namespace

LNC_BENCH_MAIN(print_tables)
