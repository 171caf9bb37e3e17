// E4 — the f-resilient randomized decider (Corollary 1's proof).
//
// Reproduces, for f = 1..8 with p in (2^{-1/f}, 2^{-1/(f+1)}):
//   Pr[all accept | exactly f bad balls]   ~ p^f     > 1/2
//   Pr[some reject | exactly f+1 bad balls] ~ 1-p^{f+1} > 1/2
// — which is precisely the membership L_f in BPLD that Theorem 1 needs.
//
// Instances: consecutive rings with exactly k bad balls planted as k
// isolated palette-overflow nodes (an out-of-range color makes the node's
// own ball bad without touching its neighbors' balls). The ring is
// interned and shared across samples; only the planted outputs vary.
#include "bench_common.h"

#include <cmath>

#include "decide/guarantee.h"
#include "decide/resilient_decider.h"
#include "scenario/registry.h"
#include "stats/threadpool.h"

namespace {

using namespace lnc;

/// A ring configuration with exactly `bad` bad balls: start from a proper
/// 3-coloring and overwrite `bad` well-separated nodes with color 7.
decide::SampledConfiguration planted_configuration(graph::NodeId n,
                                                   std::size_t bad,
                                                   std::uint64_t seed) {
  decide::SampledConfiguration sample;
  sample.shared_instance = scenario::interned_instance("hard-ring", n);
  sample.output.assign(n, 0);
  for (graph::NodeId v = 0; v < n; ++v) sample.output[v] = v % 2;
  if (n % 2 == 1) sample.output[n - 1] = 2;
  const graph::NodeId stride =
      std::max<graph::NodeId>(2, n / std::max<std::size_t>(1, bad));
  const auto offset = static_cast<graph::NodeId>(seed % 2);
  for (std::size_t i = 0; i < bad; ++i) {
    sample.output[(offset + static_cast<graph::NodeId>(i) * stride) % n] = 7;
  }
  return sample;
}

void print_tables() {
  bench::print_header(
      "E4: f-resilient decider guarantee", "Corollary 1 proof",
      "For each f: p in (2^{-1/f}, 2^{-1/(f+1)}); accept-on-yes ~ p^f and\n"
      "reject-on-no ~ 1 - p^{f+1}, both > 1/2 — so L_f is in BPLD.");

  const auto language = scenario::make_language("coloring", {{"colors", 3}});
  const lang::LclLanguage& base = *scenario::lcl_core(*language);
  const graph::NodeId n = 64;
  const stats::ThreadPool pool;

  util::Table table({"f", "p", "acc|yes meas", "p^f theory",
                     "rej|no meas", "1-p^(f+1) theory", "both > 1/2?"});
  for (std::size_t f : {1u, 2u, 3u, 4u, 6u, 8u}) {
    const auto decider = scenario::make_decider(
        "resilient", language.get(), {{"faults", static_cast<double>(f)}});
    decide::GuaranteeOptions options;
    options.trials = 6000;
    options.base_seed = 1000 + f;
    options.pool = &pool;
    const auto yes = [&, f](std::uint64_t seed) {
      return planted_configuration(n, f, seed);
    };
    const auto no = [&, f](std::uint64_t seed) {
      return planted_configuration(n, f + 1, seed);
    };
    const decide::GuaranteeReport report =
        decide::measure_guarantee(*decider, yes, no, options);
    const double p = decide::ResilientDecider::default_p(f);
    table.new_row()
        .add_cell(std::uint64_t{f})
        .add_cell(p, 4)
        .add_cell(report.accept_on_yes.p_hat, 4)
        .add_cell(std::pow(p, static_cast<double>(f)), 4)
        .add_cell(report.reject_on_no.p_hat, 4)
        .add_cell(1.0 - std::pow(p, static_cast<double>(f + 1)), 4)
        .add_cell(report.meets_bpld_bar() ? "yes" : "NO");
  }
  bench::print_table(table);

  // Verification that planted counts are exact (the experiment's premise).
  util::Table plant({"planted", "measured bad balls"});
  for (std::size_t k : {1u, 2u, 4u, 8u}) {
    const auto sample = planted_configuration(n, k, 0);
    plant.new_row().add_cell(std::uint64_t{k}).add_cell(
        std::uint64_t{base.count_bad_balls(sample.inst(), sample.output)});
  }
  bench::print_table(plant);
}

}  // namespace

LNC_BENCH_MAIN(print_tables)
