// Serving-tier latency: what the content-addressed result cache
// (src/serve) buys over recomputation.
//
// One table on the luby-mis-rounds value preset, per trial budget:
//   * cold   — plain run_sweep, no cache anywhere (the baseline);
//   * miss   — SweepService query against an empty store (compute +
//              key hashing + write-back);
//   * hit    — the identical repeat query (store lookup + verify only);
//   * top-up — a query at 2T against the cached T entry (computes
//              exactly the missing [T, 2T), merges, writes back).
// The hit column is the daemon's steady state; the top-up column is the
// incremental cost of raising a curve's precision after the fact.
#include "bench_common.h"

#include <filesystem>

#include "scenario/presets.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "serve/service.h"
#include "util/timer.h"

namespace {

using namespace lnc;

scenario::ScenarioSpec cache_spec(std::uint64_t trials) {
  const scenario::ScenarioSpec* preset =
      scenario::find_preset("luby-mis-rounds");
  scenario::ScenarioSpec spec = *preset;
  spec.n_grid = {64};
  spec.trials = trials;
  return spec;
}

/// A fresh store directory under the system temp root.
std::string fresh_store(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("lnc-bench-cache-" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

void print_tables() {
  bench::print_header(
      "Result cache: miss vs hit vs top-up",
      "serving tier (src/serve), ROADMAP \"result cache + sweep service\"",
      "A repeated query must cost a store lookup, not a recomputation,\n"
      "and raising the trial budget must cost only the MISSING trials —\n"
      "the top-up merges bit-identically into the cached accumulators\n"
      "(asserted by tests/serve_test.cpp; this table shows the payoff).");

  util::Table table({"trials", "cold (ms)", "miss (ms)", "hit (ms)",
                     "top-up to 2T (ms)", "top-up computed"});
  for (const std::uint64_t trials : {50u, 200u, 800u}) {
    const scenario::ScenarioSpec spec = cache_spec(trials);

    util::Timer timer;
    scenario::run_sweep(scenario::compile(spec));
    const double cold_ms = timer.elapsed_millis();

    serve::ServiceOptions options;
    options.threads = 1;
    serve::SweepService service(
        fresh_store(std::to_string(trials)), options);

    timer.reset();
    service.query(spec);
    const double miss_ms = timer.elapsed_millis();

    timer.reset();
    service.query(spec);
    const double hit_ms = timer.elapsed_millis();

    scenario::ScenarioSpec doubled = spec;
    doubled.trials = 2 * trials;
    timer.reset();
    const serve::QueryOutcome topped = service.query(doubled);
    const double topup_ms = timer.elapsed_millis();

    table.new_row()
        .add_cell(trials)
        .add_cell(cold_ms)
        .add_cell(miss_ms)
        .add_cell(hit_ms)
        .add_cell(topup_ms)
        .add_cell(topped.trials_computed);
  }
  bench::print_table(table);
}

}  // namespace

LNC_BENCH_MAIN(print_tables)
