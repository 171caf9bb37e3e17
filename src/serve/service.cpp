#include "serve/service.h"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "serve/cache_key.h"
#include "util/assert.h"
#include "util/build_info.h"
#include "util/timer.h"

namespace lnc::serve {

const char* to_string(CacheOutcome outcome) noexcept {
  switch (outcome) {
    case CacheOutcome::kMiss: return "miss";
    case CacheOutcome::kHit: return "hit";
    case CacheOutcome::kTopUp: return "topup";
  }
  return "?";
}

std::string cache_line(const std::string& scenario, CacheOutcome outcome,
                       std::uint64_t trials_reused,
                       std::uint64_t trials_computed, const CacheKey& key) {
  std::ostringstream os;
  os << "cache[" << scenario << "]: outcome=" << to_string(outcome)
     << " trials_reused=" << trials_reused
     << " trials_computed=" << trials_computed << " key=" << key.substr(0, 16)
     << " epoch=" << util::seed_stream_epoch();
  return os.str();
}

QueryPlan plan_query(const ResultStore& store,
                     const scenario::ScenarioSpec& spec) {
  QueryPlan plan;
  plan.key = cache_key(spec);
  plan.run_spec = spec;
  std::string diagnostic;
  std::optional<CacheEntry> entry = store.lookup(plan.key, &diagnostic);
  if (!entry) {
    if (diagnostic != "no entry") plan.notes.push_back("cache: " + diagnostic);
    plan.trials_computed = spec.trials;
    return plan;
  }
  // The entry's seed is canonical for the key. Per-trial streams depend
  // only on the trial index, so running [T', T) of the entry's spec and
  // merging it after the stored prefix equals a cold run at T bit for bit.
  plan.run_spec = entry->spec;
  plan.trials_reused = entry->spec.trials;
  if (entry->spec.trials >= spec.trials) {
    // Hit, possibly a superset of what was asked: aggregates cannot
    // surrender a prefix, and more trials only tighten the estimate.
    plan.outcome = CacheOutcome::kHit;
    if (entry->spec.trials > spec.trials) {
      plan.notes.push_back(
          "serving the cached " + std::to_string(entry->spec.trials) +
          "-trial result, a superset of the requested " +
          std::to_string(spec.trials) + " (aggregates cannot be narrowed)");
    }
  } else {
    plan.outcome = CacheOutcome::kTopUp;
    plan.run_spec.trials = spec.trials;
    plan.trials_computed = spec.trials - entry->spec.trials;
  }
  if (entry->spec.base_seed != spec.base_seed) {
    plan.notes.push_back(
        "served from the entry's canonical seed " +
        std::to_string(entry->spec.base_seed) + " (query asked for seed " +
        std::to_string(spec.base_seed) +
        "; the cache key deliberately excludes the seed)");
  }
  plan.baseline = std::move(entry->result);
  return plan;
}

SweepService::SweepService(std::string cache_dir, ServiceOptions options)
    : store_(std::move(cache_dir)), options_(options) {
  if (options_.threads != 1) pool_.emplace(options_.threads);
}

SweepService::KeyLock& SweepService::acquire_key(const CacheKey& key) {
  // The global lock guards only the map — held for a find/emplace or an
  // erase, never across a computation, so distinct keys run concurrently.
  // std::map nodes stay put while other keys come and go.
  std::lock_guard<std::mutex> guard(key_locks_guard_);
  KeyLock& lock = key_locks_[key];
  ++lock.users;
  return lock;
}

void SweepService::release_key(const CacheKey& key) {
  std::lock_guard<std::mutex> guard(key_locks_guard_);
  const auto it = key_locks_.find(key);
  if (--it->second.users == 0) key_locks_.erase(it);
}

SweepService::Stats SweepService::stats() const {
  Stats stats;
  {
    std::lock_guard<std::mutex> guard(stats_guard_);
    stats = stats_;
  }
  std::lock_guard<std::mutex> guard(key_locks_guard_);
  stats.key_locks = key_locks_.size();
  return stats;
}

obs::MetricsRegistry SweepService::metrics_snapshot() const {
  std::lock_guard<std::mutex> guard(stats_guard_);
  return metrics_;
}

QueryOutcome SweepService::query(const scenario::ScenarioSpec& spec) {
  const std::string invalid = scenario::validate(spec);
  if (!invalid.empty()) {
    throw std::runtime_error("invalid spec: " + invalid);
  }
  QueryOutcome out;
  out.key = cache_key(spec);
  const util::Timer query_timer;

  // In-flight deduplication: identical concurrent queries serialize
  // here, so the loser of a miss race re-reads the winner's entry and
  // becomes a hit instead of repeating the computation. The guard
  // unlocks before the release, which may erase the key's lock.
  KeyLock& key_lock = acquire_key(out.key);
  struct KeyUse {
    SweepService* service;
    CacheKey key;
    ~KeyUse() { service->release_key(key); }
  } key_use{this, out.key};
  std::lock_guard<std::mutex> key_guard(key_lock.mutex);

  const util::Timer lookup_timer;
  QueryPlan plan = plan_query(store_, spec);
  const double lookup_seconds = lookup_timer.elapsed_seconds();
  out.outcome = plan.outcome;
  out.trials_reused = plan.trials_reused;
  out.trials_computed = plan.trials_computed;
  out.served_seed = plan.run_spec.base_seed;
  out.seed_differs = out.served_seed != spec.base_seed;
  out.notes = std::move(plan.notes);
  if (plan.outcome == CacheOutcome::kHit) {
    out.result = std::move(*plan.baseline);
  } else {
    // A miss is a top-up from nothing: run [T', T) and merge it after
    // the stored prefix, if any.
    scenario::SweepOptions sweep_options;
    sweep_options.trial_range =
        local::TrialRange{plan.trials_reused, plan.run_spec.trials};
    sweep_options.pool = pool_ ? &*pool_ : nullptr;
    out.result =
        scenario::run_sweep(scenario::compile(plan.run_spec), sweep_options);
    if (plan.baseline) {
      const scenario::SweepResult parts[] = {std::move(*plan.baseline),
                                             std::move(out.result)};
      out.result = scenario::merge_trial_ranges(parts);
    }
    const std::string store_error =
        store_.store({out.key, 0, {}, plan.run_spec, out.result});
    if (!store_error.empty()) {
      out.notes.push_back("cache write-back failed: " + store_error);
    }
  }

  {
    std::lock_guard<std::mutex> guard(stats_guard_);
    ++stats_.queries;
    if (out.outcome == CacheOutcome::kHit) ++stats_.hits;
    if (out.outcome == CacheOutcome::kTopUp) ++stats_.topups;
    if (out.outcome == CacheOutcome::kMiss) ++stats_.misses;
    stats_.trials_computed += out.trials_computed;
    stats_.trials_reused += out.trials_reused;
    metrics_.observe("cache_lookup_seconds", lookup_seconds);
    metrics_.observe("query_seconds", query_timer.elapsed_seconds());
  }
  return out;
}

}  // namespace lnc::serve
