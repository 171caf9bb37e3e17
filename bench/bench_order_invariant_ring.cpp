// E5 — order-invariant algorithms on consecutive-identity rings
// (Corollary 1's application, paper section 4).
//
// The argument: any order-invariant t-round ring algorithm sees the same
// identity rank pattern at every interior node of the consecutive ring, so
// it outputs the same color at >= n - (2t+1) + 1 nodes; a monochromatic
// stretch of that length contains ~n bad balls for proper 3-coloring —
// crossing ANY fixed fault budget f as n grows. For t = 1 the full family
// is 3^(3!) = 729 table algorithms: we sweep ALL of them.
#include "bench_common.h"

#include <algorithm>
#include <array>

#include "algo/order_invariant.h"
#include "core/boost_params.h"
#include "core/hard_instances.h"
#include "local/runner.h"
#include "scenario/registry.h"

namespace {

using namespace lnc;

struct SweepResult {
  std::size_t min_same_color = 0;   ///< min over algorithms of the largest
                                    ///< monochromatic class
  std::size_t min_bad_balls = 0;    ///< min over algorithms of |F(G)|
};

SweepResult sweep_all_t1_algorithms(graph::NodeId n) {
  const local::Instance inst = scenario::build_instance("hard-ring", n);
  const auto language = scenario::make_language("coloring", {{"colors", 3}});
  const lang::LclLanguage& lang3 = *scenario::lcl_core(*language);
  const auto tables = algo::enumerate_tables(3, 3, 0, 729);
  SweepResult result;
  result.min_same_color = n;
  result.min_bad_balls = n;
  for (const auto& table : tables) {
    const algo::RankPatternRingAlgorithm alg(1, table);
    const local::Labeling output = local::run_ball_algorithm(inst, alg);
    std::array<std::size_t, 3> counts{};
    for (local::Label c : output) ++counts[c];
    const std::size_t biggest =
        *std::max_element(counts.begin(), counts.end());
    result.min_same_color = std::min(result.min_same_color, biggest);
    result.min_bad_balls = std::min(
        result.min_bad_balls, lang3.count_bad_balls(inst, output));
  }
  return result;
}

void print_tables() {
  bench::print_header(
      "E5: all 729 order-invariant 1-round ring algorithms",
      "Corollary 1 application, paper section 4",
      "On the consecutive-identity ring, EVERY order-invariant t-round\n"
      "algorithm outputs one color at >= n-2t nodes (the paper counts\n"
      "n-(2t-1)); the bad-ball count therefore grows ~ n and crosses any\n"
      "fixed resilience budget f: no constant-round deterministic — and\n"
      "by Theorem 1 no Monte-Carlo — algorithm solves f-resilient ring\n"
      "3-coloring.");

  util::Table table({"n", "algorithms", "min same-color nodes",
                     "paper bound n-(2t-1)", "min bad balls",
                     "crosses f=10?"});
  for (graph::NodeId n : {16u, 32u, 64u, 128u, 256u}) {
    const SweepResult sweep = sweep_all_t1_algorithms(n);
    table.new_row()
        .add_cell(std::uint64_t{n})
        .add_cell(std::uint64_t{729})
        .add_cell(std::uint64_t{sweep.min_same_color})
        .add_cell(std::uint64_t{n - 1})
        .add_cell(std::uint64_t{sweep.min_bad_balls})
        .add_cell(sweep.min_bad_balls > 10 ? "yes" : "NO");
  }
  bench::print_table(table);

  // beta = 1/N context (Claim 2): the number of order-invariant
  // algorithms N for small t — the proof's failure floor is 1/N.
  util::Table counts({"t", "palette", "N = q^((2t+1)!)", "beta = 1/N"});
  for (int t : {0, 1}) {
    const std::uint64_t count =
        core::order_invariant_algorithm_count_ring(t, 3);
    counts.new_row()
        .add_cell(t)
        .add_cell(3)
        .add_cell(count)
        .add_cell(1.0 / static_cast<double>(count), 8);
  }
  bench::print_table(counts);
}

}  // namespace

LNC_BENCH_MAIN(print_tables)
