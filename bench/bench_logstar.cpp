// E3 — the Omega(log* n) / O(log* n) ring-coloring frontier (paper,
// sections 1.1 and 4; Linial's lower bound, Cole-Vishkin's upper bound).
//
// Reproduces the three-regime picture the paper's argument rests on:
//   * deterministic exact 3-coloring: rounds grow with log*(n)
//     (Cole-Vishkin measured against log* n);
//   * greedy-by-identity baseline: Theta(n) rounds on consecutive rings;
//   * randomized zero-round coloring: 0 rounds but only slack-correct.
// Constructions and the verifying language resolve from the registry.
#include "bench_common.h"

#include "algo/cole_vishkin.h"
#include "scenario/registry.h"
#include "util/logstar.h"

namespace {

using namespace lnc;

void print_tables() {
  bench::print_header(
      "E3: rounds to 3-color the ring", "paper sections 1.1 and 4",
      "Cole-Vishkin round counts track log*(n) while greedy tracks n; the\n"
      "zero-round randomized algorithm is flat but only eps-slack-correct\n"
      "(E2). This is the separation Corollary 1 turns into an f-resilient\n"
      "impossibility.");

  util::Table table({"n", "log*(n)", "CV rounds", "CV proper?",
                     "greedy rounds", "random rounds"});
  const auto lang3 = scenario::make_language("coloring", {{"colors", 3}});
  const auto cole_vishkin = scenario::make_construction("cole-vishkin");
  const auto greedy = scenario::make_construction("greedy-coloring");
  local::WorkerArena arena;
  local::TrialEnv env;
  env.arena = &arena;
  for (graph::NodeId n : {8u, 64u, 512u, 4096u, 32768u}) {
    const local::Instance inst = scenario::build_instance("hard-ring", n);
    local::Labeling colors;
    const auto cv = cole_vishkin->run(inst, env, colors);
    std::string greedy_rounds = "-";
    if (n <= 512) {  // greedy is Theta(n) rounds; cap the quadratic work
      local::Labeling greedy_colors;
      greedy_rounds =
          std::to_string(greedy->run(inst, env, greedy_colors).rounds);
    }
    table.new_row()
        .add_cell(std::uint64_t{n})
        .add_cell(util::log_star(n))
        .add_cell(cv.rounds)
        .add_cell(lang3->contains(inst, colors) ? "yes" : "NO")
        .add_cell(greedy_rounds)
        .add_cell(0);
  }
  bench::print_table(table);

  // The schedule formula itself, over identity bit-lengths: the log*-like
  // saturation at ~4 iterations for any practical universe.
  util::Table sched({"id bits", "CV reduction iterations"});
  for (int bits : {3, 8, 16, 32, 64}) {
    sched.new_row().add_cell(bits).add_cell(
        algo::ColeVishkinFactory::reduction_iterations(bits));
  }
  bench::print_table(sched);
}

}  // namespace

LNC_BENCH_MAIN(print_tables)
