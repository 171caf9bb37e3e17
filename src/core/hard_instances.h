// Hard-instance families (Claim 2).
//
// Claim 2 asserts: if no t-round deterministic algorithm exists for L,
// then for every Dmin and Imin there is an instance (H, x, id) with
// diameter >= Dmin and all identities >= Imin on which the Monte-Carlo
// construction algorithm C fails with probability >= beta = 1/N.
//
// For the f-resilient ring-coloring languages the paper's own Corollary-1
// argument exhibits the family concretely: cycles with consecutive
// identities. This module generates those instances (with the diameter
// and identity-floor knobs the claim needs) and estimates beta empirically
// for a given construction algorithm.
#pragma once

#include <vector>

#include "lang/language.h"
#include "local/instance.h"
#include "local/runner.h"
#include "stats/montecarlo.h"
#include "stats/threadpool.h"

namespace lnc::core {

/// C_n with identities start, start+1, ..., start+n-1 in ring order — the
/// Corollary-1 hard instance. Inputs all zero.
local::Instance consecutive_ring(graph::NodeId n, ident::Identity start = 1);

/// The Claim-2 instance sequence (H_1, ..., H_count): ring instances whose
/// diameters are >= min_diameter (ring diameter = floor(n/2)) and whose
/// identity ranges are pairwise disjoint and increasing — H_{i+1}'s
/// smallest identity exceeds H_i's largest, exactly the construction in
/// the proof of Claim 3 / Theorem 1.
std::vector<local::Instance> claim2_sequence(std::size_t count,
                                             std::uint64_t min_diameter,
                                             ident::Identity first_identity = 1);

/// Empirical beta: Pr over construction seeds that C's output on `inst`
/// lies OUTSIDE `language`. Claim 2 promises a positive constant floor;
/// the experiments feed the measured value into BoostParameters.
stats::Estimate estimate_beta(const local::Instance& inst,
                              const local::RandomizedBallAlgorithm& algo,
                              const lang::Language& language,
                              std::uint64_t trials, std::uint64_t base_seed,
                              const stats::ThreadPool* pool = nullptr);

}  // namespace lnc::core
