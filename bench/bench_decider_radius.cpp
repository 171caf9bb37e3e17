// E9 — LD is a strict subset of BPLD, witnessed by amos (paper, section
// 2.3.1): "amos cannot be deterministically decided in D/2 - 1 rounds in
// graphs of diameter D (because no nodes can decide whether or not two
// nodes at distance D are selected)". The zero-round randomized decider
// achieves guarantee ~0.618 on EVERY diameter.
//
// Two measurements:
//  1. Exhaustive sweep of all zero-round deterministic deciders (verdict =
//     function of (selected?, has-no-neighbors?)): each one errs on a yes
//     or a no instance.
//  2. The natural radius-t LD attempt (the registered "local-count"
//     decider: reject iff >= 2 selected in my ball) errs exactly when the
//     two selected nodes are > 2t apart: error rate 1 as soon as the ring
//     diameter exceeds 2t, for every t.
#include "bench_common.h"

#include "decide/evaluate.h"
#include "decide/experiment_plans.h"
#include "lang/amos.h"
#include "scenario/registry.h"

namespace {

using namespace lnc;

void print_tables() {
  bench::print_header(
      "E9: amos separates LD from BPLD", "paper section 2.3.1",
      "Every deterministic 0-round decider errs on amos; the radius-t\n"
      "counting decider errs whenever two selected nodes are > 2t apart;\n"
      "the golden-ratio randomized decider holds its ~0.618 guarantee at\n"
      "every diameter with t' = 0.");

  // Part 1: all 16 zero-round deterministic deciders. A 0-round verdict
  // can depend on (output, degree-is-zero); on rings degree is constant,
  // so the verdict is v: {unselected, selected} -> {accept, reject}: 4
  // deciders; we list all and their failure certificate.
  util::Table exhaustive({"accept(unsel)", "accept(sel)",
                          "errs on", "certificate"});
  for (int mask = 0; mask < 4; ++mask) {
    const bool acc_unsel = (mask & 1) != 0;
    const bool acc_sel = (mask & 2) != 0;
    std::string errs;
    std::string cert;
    // yes instance A: nobody selected; yes instance B: one selected;
    // no instance C: two selected.
    if (!acc_unsel) {
      errs = "yes (0 selected)";
      cert = "some node rejects a member";
    } else if (!acc_sel) {
      errs = "yes (1 selected)";
      cert = "the selected node rejects a member";
    } else {
      errs = "no (2 selected)";
      cert = "all nodes accept a non-member";
    }
    exhaustive.new_row()
        .add_cell(acc_unsel ? "true" : "false")
        .add_cell(acc_sel ? "true" : "false")
        .add_cell(errs)
        .add_cell(cert);
  }
  bench::print_table(exhaustive);

  // Part 2: the radius-t counting decider vs diameter.
  util::Table sweep({"ring n", "diameter", "t", "det errs (2 sel antipodal)",
                     "rand guarantee (meas)"});
  const auto randomized = scenario::make_decider("amos", nullptr);
  const rand::PhiloxCoins no_coins(0, rand::Stream::kDecision);
  local::BatchRunner runner;
  for (graph::NodeId ring_n : {6u, 10u, 18u, 34u, 66u}) {
    const local::Instance ring = scenario::build_instance("ring", ring_n);
    const int diameter = static_cast<int>(ring_n) / 2;
    local::Labeling two_selected(ring_n, 0);
    two_selected[0] = lang::Amos::kSelected;
    two_selected[ring_n / 2] = lang::Amos::kSelected;
    for (int t : {1, 2, 4}) {
      const auto det = scenario::make_decider(
          "local-count", nullptr, {{"radius", static_cast<double>(t)}});
      const bool errs =
          decide::evaluate(ring, two_selected, *det, no_coins)
              .accepted;  // non-member!
      // Randomized side: Pr[reject | 2 selected] must stay >= 1 - p^2.
      const stats::Estimate reject = runner.run(decide::acceptance_plan(
          "amos-reject", ring, two_selected, *randomized, 3000,
          ring_n * 10 + static_cast<std::uint64_t>(t), {},
          /*success_on_accept=*/false));
      sweep.new_row()
          .add_cell(std::uint64_t{ring_n})
          .add_cell(diameter)
          .add_cell(t)
          .add_cell(errs ? "ERRS (accepts)" : "correct")
          .add_cell(reject.p_hat, 4);
    }
  }
  bench::print_table(sweep);
  std::cout << "Reading: each fixed t is correct only while diameter <= 2t;\n"
               "the randomized column stays ~0.618+ everywhere.\n\n";
}

}  // namespace

LNC_BENCH_MAIN(print_tables)
