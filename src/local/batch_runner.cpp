#include "local/batch_runner.h"

#include <algorithm>
#include <array>

#include "obs/progress.h"
#include "obs/trace.h"
#include "util/assert.h"
#include "util/timer.h"

namespace lnc::local {

ExperimentPlan custom_plan(std::string name, std::uint64_t trials,
                           std::uint64_t base_seed,
                           std::function<bool(const TrialEnv&)> trial) {
  ExperimentPlan plan;
  plan.name = std::move(name);
  plan.trials = trials;
  plan.base_seed = base_seed;
  plan.trial = [trial = std::move(trial)](const TrialEnv& env,
                                          ShardTally& tally) {
    if (trial(env)) ++tally.successes;
  };
  return plan;
}

ExperimentPlan custom_value_plan(
    std::string name, std::uint64_t trials, std::uint64_t base_seed,
    std::function<double(const TrialEnv&)> trial) {
  ExperimentPlan plan;
  plan.name = std::move(name);
  plan.trials = trials;
  plan.base_seed = base_seed;
  plan.workload = WorkloadKind::kValue;
  plan.trial = [trial = std::move(trial)](const TrialEnv& env,
                                          ShardTally& tally) {
    tally.add_value(trial(env));
  };
  return plan;
}

ExperimentPlan custom_count_plan(
    std::string name, std::uint64_t trials, std::uint64_t base_seed,
    std::size_t counters,
    std::function<void(const TrialEnv&, std::span<std::uint64_t>)> trial) {
  ExperimentPlan plan;
  plan.name = std::move(name);
  plan.trials = trials;
  plan.base_seed = base_seed;
  plan.workload = WorkloadKind::kCounter;
  plan.counters = counters;
  plan.trial = [trial = std::move(trial)](const TrialEnv& env,
                                          ShardTally& tally) {
    trial(env, tally.counts);
  };
  return plan;
}

const char* to_string(WorkloadKind kind) noexcept {
  switch (kind) {
    case WorkloadKind::kSuccess:
      return "success";
    case WorkloadKind::kValue:
      return "value";
    case WorkloadKind::kCounter:
      return "counter";
  }
  return "?";
}

std::optional<WorkloadKind> workload_from_string(
    std::string_view text) noexcept {
  if (text == "success") return WorkloadKind::kSuccess;
  if (text == "value") return WorkloadKind::kValue;
  if (text == "counter") return WorkloadKind::kCounter;
  return std::nullopt;
}

TrialRange shard_range(std::uint64_t trials, unsigned shard,
                       unsigned shard_count) {
  LNC_EXPECTS(shard_count > 0 && shard < shard_count);
  const std::uint64_t base = trials / shard_count;
  const std::uint64_t remainder = trials % shard_count;
  const std::uint64_t begin =
      shard * base + std::min<std::uint64_t>(shard, remainder);
  const std::uint64_t length = base + (shard < remainder ? 1 : 0);
  return {begin, begin + length};
}

TrialRange TrialBatches::operator[](std::uint64_t batch) const noexcept {
  const std::uint64_t base = range.count() / count;
  const std::uint64_t extra = range.count() % count;
  const std::uint64_t begin =
      range.begin + batch * base + std::min(batch, extra);
  return {begin, begin + base + (batch < extra ? 1 : 0)};
}

TrialBatches cut_trials(TrialRange range, std::uint64_t cap,
                        std::uint64_t workers, std::uint64_t parts) {
  LNC_EXPECTS(cap > 0 && workers > 0 && parts > 0);
  const std::uint64_t step = (workers + parts - 1) / parts;
  const std::uint64_t fewest = (range.count() + cap - 1) / cap;
  return {range,
          std::min(range.count(), (fewest + step - 1) / step * step)};
}

void ShardTally::merge(const ShardTally& other) {
  successes += other.successes;
  trials += other.trials;
  value_sum.merge(other.value_sum);
  value_sum_sq.merge(other.value_sum_sq);
  if (!other.counts.empty()) {
    if (counts.empty()) counts.assign(other.counts.size(), 0);
    LNC_EXPECTS(counts.size() == other.counts.size() &&
                "merging counter tallies of different widths");
    for (std::size_t j = 0; j < counts.size(); ++j) {
      counts[j] += other.counts[j];
    }
  }
  telemetry.merge(other.telemetry);
}

BatchRunner::BatchRunner(const stats::ThreadPool* pool) : pool_(pool) {
  arenas_.resize(worker_count());
}

unsigned BatchRunner::worker_count() const noexcept {
  return pool_ != nullptr ? pool_->thread_count() : 1;
}

template <typename Body>
void BatchRunner::for_each_batch(const ExperimentPlan& plan,
                                 const TrialBatches& batches,
                                 std::uint64_t parts, bool fresh_arenas,
                                 Body&& body) {
  // Batch-major: a batch's parts are neighbours in the dispatch, so the
  // workers share each batch and finish batches about in order.
  auto invoke = [&](unsigned worker, std::uint64_t task) {
    const TrialRange batch = batches[task / parts];
    const std::uint64_t part = task % parts;
    LNC_EXPECTS(batch.count() <= kBatchTrials);
    std::array<TrialEnv, kBatchTrials> envs;
    // Observability channel for this worker: deep engine code (ball
    // collection, vector kernels) reaches the registry through the
    // thread-local pointer. Installed only when metrics are on, so the
    // disabled path costs one relaxed load here and a null TLS read at
    // every downstream hook.
    obs::MetricsRegistry* metrics =
        obs::metrics_enabled() ? &arenas_[worker].metrics() : nullptr;
    const obs::WorkerMetricsScope metrics_scope(metrics);
    const util::Timer trial_timer;
    // Naive backend: a cold arena per call (nothing survives — the
    // reuse-ablation baseline). The call's telemetry still lands in the
    // persistent worker accumulator so tallies merge identically.
    std::optional<WorkerArena> fresh;
    if (fresh_arenas) fresh.emplace();
    for (std::uint64_t k = 0; k < batch.count(); ++k) {
      TrialEnv& env = envs[k];
      env.index = batch.begin + k;
      env.seed = stats::trial_seed(plan.base_seed, env.index);
      env.arena = fresh ? &*fresh : &arenas_[worker];
      env.ball_tables = ball_tables_;
    }
    body(worker, std::span<const TrialEnv>(envs.data(), batch.count()), part);
    if (fresh) arenas_[worker].telemetry().merge(fresh->telemetry());
    // Per-call wall time (a trial's, or a part's of a batch) lands in the
    // worker's lock-free accumulator (timing-only telemetry; never part
    // of the deterministic contract).
    const double trial_seconds = trial_timer.elapsed_seconds();
    arenas_[worker].telemetry().wall_seconds += trial_seconds;
    if (metrics != nullptr) {
      metrics->observe("trial_wall_seconds", trial_seconds);
    }
    // Heartbeat ticks per trial, from the call running a batch's last
    // part.
    if (progress_ != nullptr && part + 1 == parts) {
      progress_->tick(batch.count());
    }
  };
  const std::uint64_t tasks = batches.count * parts;
  if (pool_ != nullptr) {
    pool_->parallel_for_workers(tasks, invoke);
  } else {
    for (std::uint64_t task = 0; task < tasks; ++task) invoke(0, task);
  }
}

template <typename Body>
void BatchRunner::for_each_vector_trial(const ExperimentPlan& plan,
                                        TrialRange range, Body&& body) {
  // A multiple of the worker count of batches (while the range has that
  // many trials): every worker gets the same share of lockstep work and
  // none idles through a short last batch.
  const TrialBatches batches = cut_trials(
      range, std::max<std::uint64_t>(plan.optimization.batch_trials, 1),
      worker_count(), 1);
  auto run_batch = [&](unsigned worker, std::uint64_t b) {
    WorkerArena& arena = arenas_[worker];
    const auto [begin, end] = batches[b];
    obs::MetricsRegistry* metrics =
        obs::metrics_enabled() ? &arena.metrics() : nullptr;
    const obs::WorkerMetricsScope metrics_scope(metrics);
    const obs::Span batch_span("batch", obs::span_args("trials", end - begin));
    // Per-trial construction-coin keys, exactly what the scalar trial
    // body's env.construction_coins() would produce.
    auto& keys = arena.vector_scratch().coin_key_buffer();
    keys.resize(end - begin);
    for (std::uint64_t i = begin; i < end; ++i) {
      TrialEnv env;
      env.index = i;
      env.seed = stats::trial_seed(plan.base_seed, i);
      keys[i - begin] = env.construction_coins().key();
    }
    const util::Timer batch_timer;
    run_vector_batch(
        *plan.vector.instance, *plan.vector.factory, keys,
        arena.vector_scratch(), &arena.telemetry(),
        [&](std::uint32_t local, const Labeling& out, int rounds,
            const Telemetry& delta) {
          TrialEnv env;
          env.index = begin + local;
          env.seed = stats::trial_seed(plan.base_seed, env.index);
          env.arena = &arena;
          env.ball_tables = ball_tables_;
          body(worker, env, out, rounds, delta);
        });
    const double batch_seconds = batch_timer.elapsed_seconds();
    arena.telemetry().wall_seconds += batch_seconds;
    if (metrics != nullptr) {
      metrics->observe("batch_wall_seconds", batch_seconds);
      if (batch_seconds > 0.0) {
        metrics->observe("batch_trials_per_sec",
                         static_cast<double>(end - begin) / batch_seconds);
      }
    }
    if (progress_ != nullptr) progress_->tick(end - begin);
  };
  if (pool_ != nullptr) {
    pool_->parallel_for_workers(batches.count, run_batch);
  } else {
    for (std::uint64_t b = 0; b < batches.count; ++b) run_batch(0, b);
  }
}

void BatchRunner::run_on_workers(
    std::uint64_t count,
    const std::function<void(WorkerArena&, std::uint64_t)>& body) {
  if (pool_ != nullptr) {
    pool_->parallel_for_workers(
        count, [&](unsigned worker, std::uint64_t i) {
          body(arenas_[worker], i);
        });
  } else {
    for (std::uint64_t i = 0; i < count; ++i) body(arenas_[0], i);
  }
}

void BatchRunner::reset_worker_telemetry() {
  for (WorkerArena& arena : arenas_) arena.telemetry().reset();
}

void BatchRunner::reset_worker_metrics() {
  for (WorkerArena& arena : arenas_) arena.metrics().clear();
}

obs::MetricsRegistry BatchRunner::merged_worker_metrics() {
  obs::MetricsRegistry merged;
  for (const WorkerArena& arena : arenas_) merged.merge(arena.metrics());
  return merged;
}

stats::Estimate BatchRunner::run(const ExperimentPlan& plan) {
  LNC_EXPECTS(plan.workload == WorkloadKind::kSuccess);
  const ShardTally tally = run_shard(plan, {0, plan.trials});
  return stats::finalize_estimate(tally.successes, tally.trials);
}

ShardTally BatchRunner::run_shard(const ExperimentPlan& plan,
                                  TrialRange range) {
  LNC_EXPECTS(range.begin <= range.end && range.end <= plan.trials);

  // Resolve the backend. kAuto at this level means the plan never went
  // through OptimizationConfig::automatic — keep the warm-arena scalar
  // path, the long-standing default. A vectorized request degrades to
  // batched transparently when the plan carries no vector execution.
  OptimizationConfig::Backend backend = plan.optimization.backend;
  if (backend == OptimizationConfig::Backend::kAuto) {
    backend = OptimizationConfig::Backend::kBatched;
  }
  if (backend == OptimizationConfig::Backend::kVectorized &&
      !plan.vector.engaged()) {
    backend = OptimizationConfig::Backend::kBatched;
  }

  reset_worker_telemetry();
  reset_worker_metrics();
  // One tally per worker, each on its own cache lines, so workers add to
  // theirs without contending. Every block of a tally sums exactly, so
  // merging them in worker order gives the same tally for every thread
  // count.
  struct alignas(64) WorkerTally {
    ShardTally tally;
  };
  std::vector<WorkerTally> workers(worker_count());
  for (WorkerTally& worker : workers) {
    worker.tally.counts.assign(plan.counters, 0);
  }
  const bool naive = backend == OptimizationConfig::Backend::kNaive;
  if (plan.parts.part != nullptr) {
    // Every (batch, part) pair of the range in one dispatch, each call
    // writing its batch's verdict bytes of its part; then one conjunction
    // per trial. An empty trial is one empty part.
    LNC_EXPECTS(plan.workload == WorkloadKind::kSuccess);
    const graph::NodeId nodes = plan.parts.nodes;
    const std::uint64_t parts = std::max<std::uint64_t>(
        1, (std::uint64_t{nodes} + kPartNodes - 1) / kPartNodes);
    const std::uint64_t width =
        plan.parts.shares_balls && !naive ? kBatchTrials : 1;
    std::vector<std::uint8_t> accepts(parts * range.count());  // [part][t]
    for_each_batch(
        plan, cut_trials(range, width, worker_count(), parts), parts, naive,
        [&](unsigned, std::span<const TrialEnv> envs, std::uint64_t part) {
          const auto begin = static_cast<graph::NodeId>(part * kPartNodes);
          const NodeRange part_nodes{
              begin, begin + std::min(kPartNodes, nodes - begin)};
          plan.parts.part(
              envs, part_nodes,
              std::span(accepts).subspan(
                  part * range.count() + (envs.front().index - range.begin),
                  envs.size()));
        });
    for (std::uint64_t t = 0; t < range.count(); ++t) {
      bool accepted = true;
      for (std::uint64_t part = 0; part < parts; ++part) {
        accepted = accepted && accepts[part * range.count() + t] != 0;
      }
      if (accepted == plan.parts.success_on_accept) {
        ++workers[0].tally.successes;
      }
    }
  } else if (backend == OptimizationConfig::Backend::kVectorized) {
    LNC_EXPECTS(plan.vector.finish != nullptr);
    for_each_vector_trial(
        plan, range,
        [&](unsigned worker, const TrialEnv& env, const Labeling& out,
            int rounds, const Telemetry& delta) {
          plan.vector.finish(env, out, rounds, delta, workers[worker].tally);
        });
  } else {
    for_each_batch(plan, cut_trials(range, 1, worker_count(), 1), 1, naive,
                   [&](unsigned worker, std::span<const TrialEnv> envs,
                       std::uint64_t) {
                     plan.trial(envs.front(), workers[worker].tally);
                   });
  }
  ShardTally tally;
  tally.trials = range.count();
  for (unsigned w = 0; w < worker_count(); ++w) {
    tally.merge(workers[w].tally);
    tally.telemetry.merge(arenas_[w].telemetry());
  }
  last_telemetry_ = tally.telemetry;
  last_metrics_ = merged_worker_metrics();
  return tally;
}

stats::MeanEstimate BatchRunner::run_mean(const ExperimentPlan& plan) {
  LNC_EXPECTS(plan.workload == WorkloadKind::kValue);
  const ShardTally tally = run_shard(plan, {0, plan.trials});
  return stats::finalize_mean_exact(tally.value_sum, tally.value_sum_sq,
                                    tally.trials);
}

std::vector<std::uint64_t> BatchRunner::run_counts(const ExperimentPlan& plan) {
  LNC_EXPECTS(plan.workload == WorkloadKind::kCounter);
  return run_shard(plan, {0, plan.trials}).counts;
}

}  // namespace lnc::local
