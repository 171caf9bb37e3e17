// ExperimentPlan factories for decider workloads — the decision-side
// counterpart of local/experiment.h. Every Monte-Carlo quantity involving
// a decider (acceptance probabilities, Eq.-(1) guarantee sides, the
// Claim-4/Claim-5 far-from statistics) is declared through one of these
// and executed by local::BatchRunner.
#pragma once

#include "decide/evaluate.h"
#include "decide/guarantee.h"
#include "local/experiment.h"

namespace lnc::decide {

/// Pr over fresh decision coins that D accepts the FIXED configuration
/// (inst, output). `success_on_accept == false` inverts the success notion
/// (estimates the rejection probability instead). The referenced instance,
/// output span, and decider must outlive the plan's run.
local::ExperimentPlan acceptance_plan(
    std::string name, const local::Instance& inst,
    std::span<const local::Label> output, const Decider& decider,
    std::uint64_t trials, std::uint64_t base_seed,
    EvaluateOptions options = {}, bool success_on_accept = true);

/// One full proof-pipeline trial: run C with fresh construction coins,
/// then D with fresh (independent) decision coins on C's output, under
/// the fault model of `options`. A materialized trial constructs the
/// worker's labeling in `mode` and evaluate()s it (the simulation modes
/// take no fault model). An implicit trial, ball mode only, is a parted
/// trial (local::PartedTrial): each node-range part of a batch of trials
/// is one pass of decide_each_node (decide/evaluate.h) over the worker's
/// construction memo, with one lane per trial. Without a fault model the
/// plan shares balls, so a batch's trials load each ball once; with one,
/// a batch is one trial. It holds no O(n) state, and its tally and
/// telemetry match the materialized trial's bit for bit. far_from is
/// materialized-only.
local::ExperimentPlan construct_then_decide_plan(
    std::string name, const local::Instance& inst,
    const local::RandomizedBallAlgorithm& algo,
    const Decider& decider, std::uint64_t trials,
    std::uint64_t base_seed, EvaluateOptions options = {},
    bool success_on_accept = true,
    local::ExecMode mode = local::ExecMode::kBalls);

/// One side of Eq. (1): sample a configuration with the trial's sample
/// seed, decide it with fresh decision coins, succeed when the outcome
/// matches `want_accept`.
local::ExperimentPlan guarantee_side_plan(
    std::string name, const ConfigurationSampler& sampler,
    const Decider& decider, bool want_accept, std::uint64_t trials,
    std::uint64_t base_seed, EvaluateOptions options = {});

}  // namespace lnc::decide
