// E1 — the amos zero-round randomized decider (paper, section 2.3.1).
//
// Reproduces: the decider that accepts at non-selected nodes and accepts
// with probability p at selected nodes has guarantee min(p, 1 - p^2),
// maximized at the golden ratio p* = (sqrt(5)-1)/2 ~ 0.618, where the
// yes-side and no-side error rates balance.
//
// Components resolve through the scenario registry (scenario/registry.h);
// only the p-sweep grid and the planted-selection samplers are local.
#include "bench_common.h"

#include <cmath>

#include "decide/experiment_plans.h"
#include "decide/guarantee.h"
#include "lang/amos.h"
#include "scenario/registry.h"
#include "stats/threadpool.h"
#include "util/math.h"

namespace {

using namespace lnc;

decide::ConfigurationSampler selected_sampler(graph::NodeId n, int count) {
  // The topology is fixed across trials: share the interned ring instance
  // and rebuild only the output labeling per sample.
  auto instance = scenario::interned_instance("ring", n);
  return [instance, n, count](std::uint64_t seed) {
    decide::SampledConfiguration sample;
    sample.shared_instance = instance;
    sample.output.assign(n, 0);
    // `count` selected nodes spread around the ring; placement varies with
    // the seed (the decider is placement-blind, this just avoids bias).
    for (int i = 0; i < count; ++i) {
      const auto pos = static_cast<graph::NodeId>(
          (seed + static_cast<std::uint64_t>(i) * n /
                      static_cast<std::uint64_t>(count)) %
          n);
      sample.output[pos] = lang::Amos::kSelected;
    }
    return sample;
  };
}

void print_tables() {
  bench::print_header(
      "E1: amos golden-ratio decider", "paper section 2.3.1",
      "Sweep p: measured Pr[all accept | 1 selected] ~ p, measured\n"
      "Pr[some reject | 2 selected] ~ 1 - p^2; the guarantee min of both\n"
      "peaks at p* = (sqrt(5)-1)/2 ~ 0.6180 with value ~ 0.6180.");

  const graph::NodeId n = 24;
  const stats::ThreadPool pool;
  util::Table table({"p", "accept|1sel (meas)", "p (theory)",
                     "reject|2sel (meas)", "1-p^2 (theory)",
                     "guarantee (meas)", "guarantee (theory)"});
  const double golden = util::golden_ratio_guarantee();
  for (double p : {0.30, 0.45, 0.55, 0.60, golden, 0.65, 0.70, 0.80, 0.95}) {
    const auto decider = scenario::make_decider("amos", nullptr, {{"p", p}});
    decide::GuaranteeOptions options;
    options.trials = 6000;
    options.base_seed = static_cast<std::uint64_t>(p * 1e6);
    options.pool = &pool;
    const decide::GuaranteeReport report = decide::measure_guarantee(
        *decider, selected_sampler(n, 1), selected_sampler(n, 2), options);
    const double measured_guarantee =
        std::min(report.accept_on_yes.p_hat, report.reject_on_no.p_hat);
    table.new_row()
        .add_cell(p, 4)
        .add_cell(report.accept_on_yes.p_hat, 4)
        .add_cell(p, 4)
        .add_cell(report.reject_on_no.p_hat, 4)
        .add_cell(1.0 - p * p, 4)
        .add_cell(measured_guarantee, 4)
        .add_cell(util::amos_guarantee(p), 4);
  }
  bench::print_table(table);

  // Second table: acceptance by number of selected nodes at the optimum —
  // the p^s geometric decay the proof of the example computes. The msgs /
  // words columns are the modeled communication volume of the zero-round
  // decider (local/telemetry.h) — constant in s, the point of a local
  // decision: volume scales with n, never with the planted pattern.
  util::Table decay({"selected s", "Pr[all accept] (meas)",
                     "p*^s (theory)", "msgs", "words"});
  const auto optimal = scenario::make_decider("amos", nullptr);
  const double p_star = util::golden_ratio_guarantee();
  local::BatchRunner runner(&pool);
  local::Telemetry decay_telemetry;
  for (int s : {0, 1, 2, 3, 5, 8}) {
    const auto sampler = selected_sampler(n, s);
    const stats::Estimate accept = runner.run(decide::guarantee_side_plan(
        "amos-decay", sampler, *optimal, /*want_accept=*/true, 6000,
        static_cast<std::uint64_t>(1000 + s)));
    const local::Telemetry& telemetry = runner.last_telemetry();
    decay_telemetry.merge(telemetry);
    decay.new_row()
        .add_cell(s)
        .add_cell(accept.p_hat, 4)
        .add_cell(std::pow(p_star, s), 4)
        .add_cell(telemetry.messages_sent)
        .add_cell(telemetry.words_sent);
  }
  bench::print_table(decay, &decay_telemetry);
}

}  // namespace

LNC_BENCH_MAIN(print_tables)
