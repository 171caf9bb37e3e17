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

SweepService::SweepService(std::string cache_dir, ServiceOptions options)
    : store_(std::move(cache_dir)), options_(options) {
  if (options_.threads != 1) pool_.emplace(options_.threads);
}

std::mutex& SweepService::key_mutex(const CacheKey& key) {
  // The global lock guards only the map — held for a find/emplace, never
  // across a computation, so distinct keys run concurrently.
  std::lock_guard<std::mutex> guard(key_mutexes_guard_);
  std::unique_ptr<std::mutex>& slot = key_mutexes_[key];
  if (slot == nullptr) slot = std::make_unique<std::mutex>();
  return *slot;
}

SweepService::Stats SweepService::stats() const {
  std::lock_guard<std::mutex> guard(stats_guard_);
  return stats_;
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
  // becomes a hit instead of repeating the computation.
  std::lock_guard<std::mutex> key_guard(key_mutex(out.key));

  std::string diagnostic;
  const util::Timer lookup_timer;
  std::optional<CacheEntry> entry = store_.lookup(out.key, &diagnostic);
  const double lookup_seconds = lookup_timer.elapsed_seconds();
  if (!entry && diagnostic != "no entry") {
    out.notes.push_back("cache: " + diagnostic);
  }

  if (entry && entry->spec.trials >= spec.trials) {
    // Hit — possibly a superset of what was asked; aggregates cannot
    // surrender a prefix, and more trials only tighten the estimate.
    out.outcome = CacheOutcome::kHit;
    out.trials_reused = entry->spec.trials;
    out.result = entry->result;
    out.served_seed = entry->spec.base_seed;
  } else if (entry) {
    // Top-up: run exactly the missing [T', T) under the ENTRY's spec
    // (its seed is canonical for this key) and merge into the cached
    // accumulators. Per-trial streams depend only on the trial index,
    // so the merge equals a cold run at T bit for bit.
    scenario::ScenarioSpec run_spec = entry->spec;
    run_spec.trials = spec.trials;
    scenario::SweepOptions sweep_options;
    sweep_options.trial_range =
        local::TrialRange{entry->spec.trials, spec.trials};
    sweep_options.pool = pool_ ? &*pool_ : nullptr;
    const scenario::SweepResult delta =
        scenario::run_sweep(scenario::compile(run_spec), sweep_options);
    const scenario::SweepResult parts[] = {entry->result, delta};
    out.outcome = CacheOutcome::kTopUp;
    out.trials_reused = entry->spec.trials;
    out.trials_computed = spec.trials - entry->spec.trials;
    out.result = scenario::merge_trial_ranges(parts);
    out.served_seed = run_spec.base_seed;
    const std::string store_error =
        store_.store({out.key, 0, {}, run_spec, out.result});
    if (!store_error.empty()) {
      out.notes.push_back("cache write-back failed: " + store_error);
    }
  } else {
    // Miss: cold run. The query's own spec (and seed) becomes the
    // entry's canonical form for this key.
    scenario::SweepOptions sweep_options;
    sweep_options.pool = pool_ ? &*pool_ : nullptr;
    out.outcome = CacheOutcome::kMiss;
    out.trials_computed = spec.trials;
    out.result = scenario::run_sweep(scenario::compile(spec), sweep_options);
    out.served_seed = spec.base_seed;
    const std::string store_error =
        store_.store({out.key, 0, {}, spec, out.result});
    if (!store_error.empty()) {
      out.notes.push_back("cache write-back failed: " + store_error);
    }
  }

  out.seed_differs = out.served_seed != spec.base_seed;
  if (out.seed_differs) {
    out.notes.push_back(
        "served from the entry's canonical seed " +
        std::to_string(out.served_seed) + " (query asked for seed " +
        std::to_string(spec.base_seed) +
        "; the cache key deliberately excludes the seed)");
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
