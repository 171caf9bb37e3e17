// E11 — distributed Lovász Local Lemma (paper, sections 1.1 and 4).
//
// The paper uses the constructive LLL twice: as a task whose relaxed
// version randomization solves (slack), and as the second f-resilient
// impossibility example (Corollary 1, via the reduction of LLL to
// coloring). Measured here:
//   * Moser-Tardos resampling phases across graph families (all resolved
//     from the topology registry), inside and outside the symmetric LLL
//     condition;
//   * the f-resilient face: order-invariant ring algorithms produce
//     assignments whose LLL violation count grows with n.
#include "bench_common.h"

#include <algorithm>

#include "algo/moser_tardos.h"
#include "algo/order_invariant.h"
#include "lang/lll.h"
#include "local/batch_runner.h"
#include "scenario/registry.h"

namespace {

using namespace lnc;

void print_tables() {
  bench::print_header(
      "E11: Moser-Tardos for the LLL system; f-resilient LLL on rings",
      "paper sections 1.1 and 4",
      "Bad event E_v: all of N[v] agree. Under the symmetric condition\n"
      "(e*p*(d+1) <= 1) resampling converges in a handful of phases;\n"
      "outside it, it still converges on small instances but slower. On\n"
      "consecutive rings, order-invariant algorithms violate ~n events.");

  const auto language = scenario::make_language("lll-avoidance");
  const lang::LclLanguage& lll = *scenario::lcl_core(*language);
  util::Table table({"graph", "n", "LLL condition", "phases (mean)",
                     "resamplings (mean)", "success"});
  struct Family {
    std::string name;
    local::Instance inst;
  };
  std::vector<Family> families;
  families.push_back(
      {"hypercube d=8", scenario::build_instance("hypercube", 256, {}, 1)});
  families.push_back(
      {"hypercube d=9", scenario::build_instance("hypercube", 512, {}, 2)});
  families.push_back(
      {"random 6-regular",
       scenario::build_instance("random-regular", 300, {{"degree", 6}}, 3)});
  families.push_back({"ring n=64", scenario::build_instance("hard-ring", 64)});
  families.push_back(
      {"grid 16x16", scenario::build_instance("grid", 256, {}, 4)});
  local::BatchRunner runner;
  for (const Family& family : families) {
    const std::uint64_t trials = 10;
    enum { kPhases, kResamplings, kSuccesses, kSlots };
    const auto counts = runner.run_counts(local::custom_count_plan(
        "moser-tardos", trials, 11, kSlots,
        [&](const local::TrialEnv& env, std::span<std::uint64_t> slots) {
          const rand::PhiloxCoins coins = env.construction_coins();
          const algo::MoserTardosResult result =
              algo::run_moser_tardos(family.inst, coins, 100000);
          slots[kPhases] += static_cast<std::uint64_t>(result.phases);
          slots[kResamplings] += result.total_resamplings;
          slots[kSuccesses] +=
              (result.success && lll.contains(family.inst, result.assignment))
                  ? 1
                  : 0;
        }));
    const double phase_sum = static_cast<double>(counts[kPhases]);
    const double resample_sum = static_cast<double>(counts[kResamplings]);
    const bool all_success = counts[kSuccesses] == trials;
    table.new_row()
        .add_cell(family.name)
        .add_cell(std::uint64_t{family.inst.node_count()})
        .add_cell(lang::LllAvoidance::lll_condition_holds(family.inst.g)
                      ? "holds"
                      : "fails")
        .add_cell(phase_sum / trials, 1)
        .add_cell(resample_sum / trials, 1)
        .add_cell(all_success ? "10/10" : "NOT ALL");
  }
  bench::print_table(table);

  // f-resilient LLL impossibility data: sweep all 2^(3!) = 64 binary
  // 1-round order-invariant ring algorithms; min violated events vs n.
  util::Table resilient({"n", "algorithms", "min violated events",
                         "crosses f=10?"});
  for (graph::NodeId n : {16u, 64u, 256u}) {
    const local::Instance inst = scenario::build_instance("hard-ring", n);
    const auto tables = algo::enumerate_tables(3, 2, 0, 64);
    std::size_t min_violations = n;
    for (const auto& t : tables) {
      const algo::RankPatternRingAlgorithm alg(1, t);
      const local::Labeling bits = local::run_ball_algorithm(inst, alg);
      min_violations =
          std::min(min_violations, lll.count_bad_balls(inst, bits));
    }
    resilient.new_row()
        .add_cell(std::uint64_t{n})
        .add_cell(std::uint64_t{64})
        .add_cell(std::uint64_t{min_violations})
        .add_cell(min_violations > 10 ? "yes" : "NO");
  }
  bench::print_table(resilient);
}

}  // namespace

LNC_BENCH_MAIN(print_tables)
