#include "core/critical_strings.h"

#include <algorithm>

#include "decide/experiment_plans.h"
#include "graph/metrics.h"
#include "local/batch_runner.h"
#include "rand/coins.h"
#include "util/assert.h"

namespace lnc::core {

local::Labeling run_fixed_construction(
    const local::Instance& inst, const local::RandomizedBallAlgorithm& algo,
    std::uint64_t sigma) {
  const rand::PhiloxCoins coins(sigma, rand::Stream::kConstruction);
  return local::run_ball_algorithm(inst, algo, coins);
}

bool Claim4Report::exists_below_p() const {
  return std::any_of(far_accept.begin(), far_accept.end(),
                     [this](const stats::Estimate& e) { return e.p_hat < p; });
}

Claim4Report verify_claim4(const local::Instance& inst,
                           std::span<const local::Label> fixed_output,
                           const decide::Decider& decider,
                           std::span<const graph::NodeId> scattered,
                           int exclusion_radius, double p,
                           std::uint64_t trials, std::uint64_t base_seed,
                           const stats::ThreadPool* pool) {
  Claim4Report report;
  report.p = p;
  report.scattered.assign(scattered.begin(), scattered.end());
  local::BatchRunner runner(pool);
  for (graph::NodeId u : scattered) {
    decide::EvaluateOptions options;
    options.far_from = decide::FarFrom{u, exclusion_radius};
    report.far_accept.push_back(runner.run(decide::acceptance_plan(
        "claim4/far-accept", inst, fixed_output, decider, trials,
        rand::mix_keys(base_seed, u), options)));
  }
  return report;
}

CriticalStringsReport verify_critical_strings(
    const local::Instance& inst, std::span<const local::Label> fixed_output,
    const decide::Decider& decider,
    std::span<const graph::NodeId> scattered, int exclusion_radius,
    std::uint64_t trials, std::uint64_t base_seed) {
  CriticalStringsReport report;
  report.trials = trials;

  // Distances from every member of S (shared by all trials).
  std::vector<std::vector<int>> dist;
  dist.reserve(scattered.size());
  for (graph::NodeId u : scattered) {
    dist.push_back(graph::bfs_distances(inst.g, u));
  }

  // Counter slots: one criticality tally per scattered node, plus one slot
  // for strings critical for >= 2 members.
  const std::size_t multi_slot = scattered.size();
  local::ExperimentPlan plan = local::custom_count_plan(
      "critical-strings", trials, base_seed, scattered.size() + 1,
      [&](const local::TrialEnv& env, std::span<std::uint64_t> slots) {
        // The trial seed IS sigma' here (the decision string under test):
        // one unrestricted evaluation gives the full Reject(., sigma') set;
        // criticality for each u is then pure geometry over that set.
        const rand::PhiloxCoins coins(env.seed, rand::Stream::kDecision);
        const decide::DecisionOutcome outcome =
            decide::evaluate(inst, fixed_output, decider, coins);
        if (outcome.accepted) return;  // no rejection: critical for nobody

        std::size_t critical_members = 0;
        for (std::size_t j = 0; j < scattered.size(); ++j) {
          // sigma' is critical for u when every rejection is within the
          // exclusion ball of u (i.e. D accepts far from u but rejects).
          bool all_near_u = true;
          for (graph::NodeId rej : outcome.rejecting) {
            if (dist[j][rej] < 0 || dist[j][rej] > exclusion_radius) {
              all_near_u = false;
              break;
            }
          }
          if (all_near_u) {
            ++slots[j];
            ++critical_members;
          }
        }
        if (critical_members >= 2) ++slots[multi_slot];
      });

  // The report is a plain count census — run it sequentially-deterministic
  // through the batch runner (the same counts arrive in any thread count).
  local::BatchRunner runner;
  const std::vector<std::uint64_t> slots = runner.run_counts(plan);
  report.critical_for.assign(slots.begin(), slots.begin() + multi_slot);
  report.multi_critical = slots[multi_slot];
  return report;
}

bool Claim5Report::exists_above_bound() const {
  return std::any_of(
      far_reject.begin(), far_reject.end(),
      [this](const stats::Estimate& e) { return e.p_hat >= bound; });
}

graph::NodeId Claim5Report::best_anchor() const {
  LNC_EXPECTS(!far_reject.empty());
  std::size_t best = 0;
  for (std::size_t j = 1; j < far_reject.size(); ++j) {
    if (far_reject[j].p_hat > far_reject[best].p_hat) best = j;
  }
  return scattered[best];
}

Claim5Report verify_claim5(const local::Instance& inst,
                           const local::RandomizedBallAlgorithm& algo,
                           const decide::Decider& decider,
                           std::span<const graph::NodeId> scattered,
                           int exclusion_radius, double beta, double p,
                           std::uint64_t mu, std::uint64_t trials,
                           std::uint64_t base_seed,
                           const stats::ThreadPool* pool) {
  Claim5Report report;
  report.scattered.assign(scattered.begin(), scattered.end());
  report.bound = beta * (1.0 - p) / static_cast<double>(mu);
  local::BatchRunner runner(pool);
  for (graph::NodeId u : scattered) {
    decide::EvaluateOptions options;
    options.far_from = decide::FarFrom{u, exclusion_radius};
    report.far_reject.push_back(runner.run(decide::construct_then_decide_plan(
        "claim5/far-reject", inst, algo, decider, trials,
        rand::mix_keys(base_seed, 0xC1A15ULL + u), options,
        /*success_on_accept=*/false)));
  }
  return report;
}

}  // namespace lnc::core
