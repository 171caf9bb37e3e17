// Experimental infrastructure for Claims 4 and 5 of Theorem 1's proof —
// the machinery that locates, inside each hard instance H_i, a node u_i
// whose far-neighborhood still rejects C's output often enough for the
// glue to boost the failure probability.
//
// Objects, in the paper's notation:
//
//   sigma  in Rand(C): a fixed construction random string (here: a seed);
//          C_sigma is deterministic.
//   sigma' in Rand(D): a fixed decision string.
//   S: a set of mu nodes pairwise at distance > 2(t+t').
//   "D accepts/rejects far from u": verdicts restricted to nodes at
//   distance > t+t' from u.
//   Reject(u, sigma') subset of B(u, t+t'): for a critical string, every
//   rejection happens near u — which makes critical strings for distinct
//   u in S DISJOINT events (the pigeonhole at the heart of Claim 4).
//
// The experiment E8 (bench/bench_critical_strings.cpp) measures all of it.
#pragma once

#include <vector>

#include "decide/evaluate.h"
#include "local/runner.h"
#include "stats/montecarlo.h"
#include "stats/threadpool.h"

namespace lnc::core {

/// Runs the Monte-Carlo construction algorithm with the fixed string
/// `sigma` (a seed), yielding C_sigma's deterministic output.
local::Labeling run_fixed_construction(
    const local::Instance& inst, const local::RandomizedBallAlgorithm& algo,
    std::uint64_t sigma);

/// Per-node far-acceptance estimates for a FIXED construction string:
/// entry j is  Pr_{sigma'}[ D accepts C_sigma(H) far from S[j] ].
struct Claim4Report {
  std::vector<graph::NodeId> scattered;      ///< the set S
  std::vector<stats::Estimate> far_accept;   ///< indexed like `scattered`
  double p = 0.0;                            ///< decider guarantee param
  /// Claim 4's conclusion: some u in S has far-acceptance < p.
  bool exists_below_p() const;
};

Claim4Report verify_claim4(const local::Instance& inst,
                           std::span<const local::Label> fixed_output,
                           const decide::Decider& decider,
                           std::span<const graph::NodeId> scattered,
                           int exclusion_radius, double p,
                           std::uint64_t trials, std::uint64_t base_seed,
                           const stats::ThreadPool* pool = nullptr);

/// Critical-string accounting over sampled sigma' for a fixed C_sigma:
/// sigma' is critical for u when D_sigma' rejects somewhere but accepts
/// far from u. The proof requires (a) every rejection of a critical string
/// lies inside B(u, t+t'), and (b) no string is critical for two distinct
/// members of S.
struct CriticalStringsReport {
  std::uint64_t trials = 0;
  std::vector<std::uint64_t> critical_for;  ///< per member of S
  std::uint64_t multi_critical = 0;   ///< strings critical for >= 2 nodes
  std::uint64_t escaped_reject = 0;   ///< critical strings with a rejection
                                      ///< outside B(u, t+t') (must be 0)
  bool disjointness_holds() const noexcept {
    return multi_critical == 0 && escaped_reject == 0;
  }
};

CriticalStringsReport verify_critical_strings(
    const local::Instance& inst, std::span<const local::Label> fixed_output,
    const decide::Decider& decider,
    std::span<const graph::NodeId> scattered, int exclusion_radius,
    std::uint64_t trials, std::uint64_t base_seed);

/// Claim 5: Pr over BOTH C and D randomness of
///   [ D rejects C(H) far from u ]
/// for each u in S; the claim promises some u reaching beta*(1-p)/mu.
struct Claim5Report {
  std::vector<graph::NodeId> scattered;
  std::vector<stats::Estimate> far_reject;
  double bound = 0.0;  ///< beta * (1 - p) / mu
  bool exists_above_bound() const;

  /// The u maximizing the far-rejection estimate — the anchor the glue
  /// should use for this instance.
  graph::NodeId best_anchor() const;
};

Claim5Report verify_claim5(const local::Instance& inst,
                           const local::RandomizedBallAlgorithm& algo,
                           const decide::Decider& decider,
                           std::span<const graph::NodeId> scattered,
                           int exclusion_radius, double beta, double p,
                           std::uint64_t mu, std::uint64_t trials,
                           std::uint64_t base_seed,
                           const stats::ThreadPool* pool = nullptr);

}  // namespace lnc::core
