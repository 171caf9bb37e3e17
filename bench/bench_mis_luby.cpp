// E10 — the non-constant-time contrast class (paper, section 1.3): MIS
// and maximal matching need round counts that GROW with n; measured here
// for Luby's algorithm (O(log n) expected), randomized matching, and the
// greedy baseline (Theta(n) on consecutive rings). The round-count table
// is now a declarative VALUE sweep: the round statistics compile through
// the scenario registry (workload = value, statistic = rounds) and run on
// the exact-sum mean path, so this TABLE_*.json trajectory measures the
// same plans `lnc_sweep --workload value` shards across machines.
#include "bench_common.h"

#include <cmath>

#include "local/batch_runner.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"

namespace {

using namespace lnc;

constexpr std::uint64_t kTrials = 8;

/// One declarative E10 sweep: rounds-of-construction as a value workload,
/// or the validity check as a success workload, on random-identity rings.
scenario::SweepResult run_e10_sweep(const std::string& name,
                                    const char* language,
                                    const char* construction,
                                    local::WorkloadKind workload) {
  scenario::ScenarioSpec spec;
  spec.name = name;
  spec.topology = "ring";
  spec.language = language;
  spec.construction = construction;
  spec.workload = workload;
  if (workload == local::WorkloadKind::kValue) spec.statistic = "rounds";
  spec.params = {{"random-ids", 1}};
  spec.n_grid = {64, 256, 1024, 4096};
  spec.trials = kTrials;
  spec.base_seed = 0x10B;
  return scenario::run_sweep(scenario::compile(spec));
}

void print_tables() {
  bench::print_header(
      "E10: rounds for MIS and maximal matching", "paper section 1.3",
      "Luby and randomized matching rounds grow ~ log2(n); greedy grows\n"
      "~ n. None is constant — the regime where the paper's question\n"
      "(does randomization buy constant-time?) is answered negatively by\n"
      "Theorem 1 for BPLD-decidable relaxations. Round counts flow through\n"
      "the scenario stack's value plans (exact-sum mean/stddev).");

  util::Table table({"n", "log2(n)", "Luby rounds (mean)", "Luby stddev",
                     "matching rounds (mean)", "greedy rounds",
                     "Luby valid", "matching valid"});
  const scenario::SweepResult luby_rounds = run_e10_sweep(
      "luby-rounds", "mis", "luby-mis", local::WorkloadKind::kValue);
  const scenario::SweepResult match_rounds =
      run_e10_sweep("matching-rounds", "matching", "rand-matching",
                    local::WorkloadKind::kValue);
  const scenario::SweepResult luby_valid = run_e10_sweep(
      "luby-valid", "mis", "luby-mis", local::WorkloadKind::kSuccess);
  const scenario::SweepResult match_valid =
      run_e10_sweep("matching-valid", "matching", "rand-matching",
                    local::WorkloadKind::kSuccess);
  const auto greedy = scenario::make_construction("greedy-mis");
  for (std::size_t i = 0; i < luby_rounds.rows.size(); ++i) {
    const std::uint64_t n = luby_rounds.rows[i].requested_n;
    const stats::MeanEstimate luby_mean =
        scenario::row_mean(luby_rounds.rows[i]);
    const stats::MeanEstimate match_mean =
        scenario::row_mean(match_rounds.rows[i]);
    std::string greedy_rounds = "-";
    if (n <= 256) {
      const local::Instance consecutive =
          scenario::build_instance("hard-ring", n);
      local::WorkerArena arena;
      local::TrialEnv env;
      env.arena = &arena;
      local::Labeling output;
      greedy_rounds =
          std::to_string(greedy->run(consecutive, env, output).rounds);
    }
    table.new_row()
        .add_cell(n)
        .add_cell(std::log2(static_cast<double>(n)), 1)
        .add_cell(luby_mean.mean, 1)
        .add_cell(luby_mean.stddev, 2)
        .add_cell(match_mean.mean, 1)
        .add_cell(greedy_rounds)
        .add_cell(luby_valid.rows[i].tally.successes == kTrials ? "yes"
                                                                : "NO")
        .add_cell(match_valid.rows[i].tally.successes == kTrials ? "yes"
                                                                 : "NO");
  }
  bench::print_table(table);
}

}  // namespace

LNC_BENCH_MAIN(print_tables)
