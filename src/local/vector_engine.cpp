#include "local/vector_engine.h"

#include <algorithm>
#include <numeric>

#include "obs/metrics.h"
#include "util/assert.h"
#include "util/timer.h"

namespace lnc::local {
namespace {

/// Same runaway guard as EngineOptions::max_rounds.
constexpr int kMaxRounds = 1 << 20;

}  // namespace

OptimizationConfig OptimizationConfig::automatic(std::uint64_t n,
                                                 std::uint64_t trials,
                                                 double mean_degree) {
  OptimizationConfig config;
  if (trials < 8) {
    // Too few trials for lockstep batches to pay for themselves.
    config.backend = Backend::kBatched;
    return config;
  }
  config.backend = Backend::kVectorized;
  // Size the lockstep batch so one batch's SoA state stays cache-resident:
  // roughly 64 bytes per (trial, node) of RNG + flags + program state,
  // plus the port-indexed arrays of degree-proportional programs. Clamp to
  // [4, 64] trials — below 4 the batch overhead dominates, above 64 the
  // marginal amortization is gone.
  const double per_trial_bytes =
      static_cast<double>(n) * (64.0 + 16.0 * std::max(mean_degree, 1.0));
  const double budget = 4.0 * 1024.0 * 1024.0;
  std::uint64_t batch =
      static_cast<std::uint64_t>(std::max(budget / std::max(per_trial_bytes, 1.0), 1.0));
  batch = std::clamp<std::uint64_t>(batch, 4, 64);
  config.batch_trials = std::min<std::uint64_t>(batch, trials);
  return config;
}

const char* to_string(OptimizationConfig::Backend backend) noexcept {
  switch (backend) {
    case OptimizationConfig::Backend::kAuto:
      return "auto";
    case OptimizationConfig::Backend::kNaive:
      return "naive";
    case OptimizationConfig::Backend::kBatched:
      return "batched";
    case OptimizationConfig::Backend::kVectorized:
      return "vectorized";
  }
  return "auto";
}

std::optional<OptimizationConfig::Backend> backend_from_string(
    std::string_view text) noexcept {
  if (text == "auto") return OptimizationConfig::Backend::kAuto;
  if (text == "naive") return OptimizationConfig::Backend::kNaive;
  if (text == "batched") return OptimizationConfig::Backend::kBatched;
  if (text == "vectorized") return OptimizationConfig::Backend::kVectorized;
  return std::nullopt;
}

std::size_t VectorBatch::footprint_bytes() const noexcept {
  return rngs_.capacity() * sizeof(VecRng) + halted_.capacity() +
         live_nodes_.capacity() * sizeof(std::uint32_t) + done_.capacity() +
         rounds_.capacity() * sizeof(int) +
         (messages_.capacity() + words_.capacity()) * sizeof(std::uint64_t) +
         (live_trials_.capacity() + active_nodes_.capacity() +
          active_counts_.capacity()) *
             sizeof(std::uint32_t);
}

void run_vector_batch(
    const Instance& inst, const NodeProgramFactory& factory,
    std::span<const std::uint64_t> coin_keys, VectorScratch& scratch,
    Telemetry* accumulate,
    const std::function<void(std::uint32_t, const Labeling&, int,
                             const Telemetry&)>& finish) {
  const auto trials = static_cast<std::uint32_t>(coin_keys.size());
  if (trials == 0) return;
  const auto n = static_cast<std::uint32_t>(inst.node_count());

  const bool may_recycle = scratch.program_ != nullptr &&
                           scratch.last_factory_ == &factory &&
                           scratch.last_factory_name_ == factory.name();
  if (!may_recycle) {
    scratch.program_ = factory.create_vector();
    LNC_EXPECTS(scratch.program_ != nullptr);
    scratch.last_factory_ = &factory;
    scratch.last_factory_name_ = factory.name();
  }
  VectorProgram& program = *scratch.program_;

  VectorBatch& batch = scratch.batch_;
  batch.inst_ = &inst;
  batch.n_ = n;
  batch.trials_ = trials;
  const std::size_t total = static_cast<std::size_t>(trials) * n;
  batch.rngs_.resize(total);
  batch.halted_.assign(total, 0);
  batch.live_nodes_.assign(trials, n);
  batch.done_.assign(trials, 0);
  batch.rounds_.assign(trials, 0);
  batch.messages_.assign(trials, 0);
  batch.words_.assign(trials, 0);
  for (std::uint32_t t = 0; t < trials; ++t) {
    const std::uint64_t key = coin_keys[t];
    VecRng* row = batch.rngs_.data() + batch.at(t, 0);
    for (std::uint32_t v = 0; v < n; ++v) row[v] = VecRng{key, inst.ids[v], 0};
  }
  batch.live_trials_.resize(trials);
  std::iota(batch.live_trials_.begin(), batch.live_trials_.end(), 0u);
  batch.active_nodes_.resize(total);
  batch.active_counts_.assign(trials, n);
  for (std::uint32_t t = 0; t < trials; ++t) {
    std::uint32_t* list = batch.active_nodes_.data() + batch.at(t, 0);
    std::iota(list, list + n, 0u);
  }

  program.init(batch);

  // Re-filters a live trial's active-node list after halts, and retires
  // trials whose last node halted (recording the terminating round).
  const auto settle = [&](int round) {
    const auto settle_trial = [&](std::uint32_t t) {
      if (batch.live_nodes_[t] == 0) {
        batch.done_[t] = 1;
        batch.rounds_[t] = round;
        return true;
      }
      std::uint32_t* list = batch.active_nodes_.data() + batch.at(t, 0);
      const std::uint32_t count = batch.active_counts_[t];
      std::uint32_t kept = 0;
      for (std::uint32_t k = 0; k < count; ++k) {
        const std::uint32_t v = list[k];
        if (batch.halted_[batch.at(t, v)] == 0) list[kept++] = v;
      }
      batch.active_counts_[t] = kept;
      return false;
    };
    auto& live = batch.live_trials_;
    live.erase(std::remove_if(live.begin(), live.end(), settle_trial),
               live.end());
  };

  // Observability-only kernel timing and footprint: recorded into the
  // worker's metrics registry when one is installed (a null TLS read
  // otherwise). The lockstep round loop is the batch's hot kernel.
  obs::MetricsRegistry* obs_metrics = obs::worker_metrics();
  const util::Timer kernel_timer;
  settle(0);
  int round = 0;
  while (!batch.live_trials_.empty()) {
    LNC_ASSERT(round < kMaxRounds);
    ++round;
    program.round(batch, round);
    settle(round);
  }
  if (obs_metrics != nullptr) {
    obs_metrics->observe("vector_kernel_seconds",
                         kernel_timer.elapsed_seconds());
    obs_metrics->observe("vector_batch_footprint_bytes",
                         static_cast<double>(batch.footprint_bytes() +
                                             program.footprint_bytes()));
  }

  if (accumulate != nullptr) {
    accumulate->arena_peak_bytes =
        std::max(accumulate->arena_peak_bytes,
                 static_cast<std::uint64_t>(batch.footprint_bytes() +
                                            program.footprint_bytes()));
  }
  for (std::uint32_t t = 0; t < trials; ++t) {
    Telemetry delta;
    delta.messages_sent = batch.messages_[t];
    delta.words_sent = batch.words_[t];
    delta.rounds_executed = static_cast<std::uint64_t>(batch.rounds_[t]);
    if (accumulate != nullptr) accumulate->merge(delta);
    program.output(batch, t, scratch.output_);
    finish(t, scratch.output_, batch.rounds_[t], delta);
  }
}

}  // namespace lnc::local
