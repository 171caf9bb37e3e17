// E2 — epsilon-slack 3-coloring by the zero-round uniform coloring
// (paper, sections 1.1 and 5): randomization HELPS for slack relaxations.
//
// Reproduces:
//  * the per-node bad-ball rate of the uniform coloring on rings
//    concentrates at 5/9 (a node clashes with at least one of its two
//    neighbors with probability 1 - (2/3)^2);
//  * Pr[at most eps*n bad balls] exhibits a sharp threshold at eps = 5/9:
//    ~0 below, -> 1 above, with the transition narrowing as n grows —
//    "with constant probability, a fraction 1-eps of the nodes are
//    properly colored";
//  * the open-problem n^c budgets between resilient (c=0) and slack (c=1).
//
// Every component resolves through the scenario registry; the tables are
// the bench-specific part.
#include "bench_common.h"

#include "local/experiment.h"
#include "scenario/registry.h"
#include "stats/threadpool.h"

namespace {

using namespace lnc;

void print_tables() {
  bench::print_header(
      "E2: epsilon-slack coloring via zero-round random colors",
      "paper sections 1.1 and 5",
      "Mean bad-ball fraction ~ 5/9 ~ 0.5556 on rings; success probability\n"
      "Pr[bad <= eps*n] jumps from ~0 to ~1 across eps = 5/9, so for every\n"
      "eps above the threshold the trivial Monte-Carlo algorithm solves\n"
      "the eps-slack relaxation with probability -> 1 (randomization\n"
      "helps), while no fixed f budget survives growing n (E4/E6).");

  const auto language = scenario::make_language("coloring", {{"colors", 3}});
  const lang::LclLanguage& base = *scenario::lcl_core(*language);
  const auto construction =
      scenario::make_construction("rand-coloring", {{"colors", 3}});
  const local::RandomizedBallAlgorithm& coloring =
      *construction->ball_algorithm();
  const stats::ThreadPool pool;
  local::BatchRunner runner(&pool);

  // Table 1: bad-ball fraction statistics vs n.
  util::Table frac({"n", "mean bad frac", "stddev", "theory 5/9"});
  for (graph::NodeId n : {30u, 100u, 300u, 1000u}) {
    const local::Instance inst = scenario::build_instance("hard-ring", n);
    const stats::MeanEstimate mean =
        runner.run_mean(local::construction_value_plan(
            "bad-ball-fraction", inst, coloring,
            [&base, n](const local::Instance& instance,
                       const local::Labeling& y) {
              return static_cast<double>(base.count_bad_balls(instance, y)) /
                     static_cast<double>(n);
            },
            600, n));
    frac.new_row()
        .add_cell(std::uint64_t{n})
        .add_cell(mean.mean, 4)
        .add_cell(mean.stddev, 4)
        .add_cell(5.0 / 9.0, 4);
  }
  bench::print_table(frac);

  // Table 2: the success-probability threshold across eps, for two n.
  util::Table threshold(
      {"eps", "Pr[success] n=60", "Pr[success] n=600", "side of 5/9"});
  for (double eps : {0.35, 0.45, 0.50, 0.54, 0.57, 0.60, 0.70, 0.85}) {
    std::vector<double> prob;
    for (graph::NodeId n : {60u, 600u}) {
      const local::Instance inst = scenario::build_instance("hard-ring", n);
      const auto slack = scenario::make_language(
          "slack-coloring", {{"colors", 3}, {"eps", eps}});
      const stats::Estimate success = runner.run(local::construction_plan(
          "slack-success", inst, coloring,
          [&slack](const local::Instance& instance,
                   const local::Labeling& y) {
            return slack->contains(instance, y);
          },
          600, static_cast<std::uint64_t>(eps * 1e4) + n));
      prob.push_back(success.p_hat);
    }
    threshold.new_row()
        .add_cell(eps, 2)
        .add_cell(prob[0], 4)
        .add_cell(prob[1], 4)
        .add_cell(eps < 5.0 / 9.0 ? "below" : "above");
  }
  bench::print_table(threshold);

  // Table 3: the paper's OPEN PROBLEM (section 5) — intermediate
  // relaxations with budget n^c, c in (0, 1). For every c < 1 the budget
  // n^c is eventually dwarfed by the Theta(n) conflicts of the zero-round
  // algorithm, so its success probability collapses as n grows — the
  // randomized upper-bound side of the open regime, measured.
  std::cout << "Open problem (section 5): budget n^c between f-resilient\n"
               "(c=0) and slack (c=1):\n\n";
  util::Table poly({"c", "Pr[ok] n=30", "Pr[ok] n=120", "Pr[ok] n=480"});
  for (double c : {0.0, 0.4, 0.7, 0.9, 1.0}) {
    poly.new_row().add_cell(c, 1);
    for (graph::NodeId n : {30u, 120u, 480u}) {
      const local::Instance inst = scenario::build_instance("hard-ring", n);
      const auto relaxed = scenario::make_language(
          "poly-resilient-coloring", {{"colors", 3}, {"exponent", c}});
      const stats::Estimate ok = runner.run(local::construction_plan(
          "poly-resilient-ok", inst, coloring,
          [&relaxed](const local::Instance& instance,
                     const local::Labeling& y) {
            return relaxed->contains(instance, y);
          },
          400, static_cast<std::uint64_t>(c * 100) + n));
      poly.add_cell(ok.p_hat, 4);
    }
  }
  bench::print_table(poly);
}

}  // namespace

LNC_BENCH_MAIN(print_tables)
