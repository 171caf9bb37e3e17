// The serving tier's brain: answer "the curve for this spec, at T
// trials" from the ResultStore when possible, compute ONLY the missing
// trial range when not, and write the improved entry back.
//
// Three outcomes per query:
//   hit   — a cached entry already covers >= T trials; zero trials run.
//           (Aggregates cannot extract a prefix, so a T < T' query is
//           served the cached T'-trial superset — strictly tighter
//           error bars than asked for.)
//   topup — an entry covers T' < T; exactly [T', T) runs and merges
//           into the cached accumulators. Bit-identical to a cold run
//           at T (tests/serve_test.cpp asserts the exact bits).
//   miss  — no usable entry; [0, T) runs cold and seeds the cache: a
//           top-up from nothing.
//
// plan_query makes that decision; SweepService::query and lnc_launch
// --cache both run it, and both write back through ResultStore::store,
// which never replaces an entry covering at least as many trials.
//
// Concurrent identical queries share one computation: queries serialize
// on a per-key mutex, so the second of two racing misses finds the
// first's entry and becomes a hit. Distinct keys proceed in parallel,
// and a key's mutex lives only while a query holds or waits on it.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "scenario/scenario.h"
#include "scenario/sweep.h"
#include "serve/result_store.h"
#include "stats/threadpool.h"

namespace lnc::serve {

enum class CacheOutcome { kMiss, kHit, kTopUp };
const char* to_string(CacheOutcome outcome) noexcept;

/// The grep-stable decision line lnc_sweep --cache and lnc_launch --cache
/// print (CI's cache gate keys off it), without a newline:
///   cache[name]: outcome=topup trials_reused=30 trials_computed=30
///   key=<first 16 hex digits> epoch=<seed-stream epoch>
std::string cache_line(const std::string& scenario, CacheOutcome outcome,
                       std::uint64_t trials_reused,
                       std::uint64_t trials_computed, const CacheKey& key);

/// The hit / top-up / miss decision for one query. The answer covers
/// trials [0, run_spec.trials) of run_spec: the stored `baseline` covers
/// [0, trials_reused), and a top-up or miss computes the rest.
struct QueryPlan {
  CacheOutcome outcome = CacheOutcome::kMiss;
  CacheKey key;
  /// The spec the answer is computed under. On a miss it is the query's;
  /// otherwise it is the entry's, whose seed is canonical for the key,
  /// at the query's trial count (a hit keeps the entry's own count, a
  /// superset of the query's).
  scenario::ScenarioSpec run_spec;
  /// The stored entry's result: the whole answer on a hit, the prefix on
  /// a top-up, nullopt on a miss.
  std::optional<scenario::SweepResult> baseline;
  std::uint64_t trials_reused = 0;    ///< trials served from the store
  std::uint64_t trials_computed = 0;  ///< trials left to run
  /// Store diagnostics and the superset and seed notes. Never fatal.
  std::vector<std::string> notes;
};

/// Looks `spec` up in `store` and decides how to answer it.
QueryPlan plan_query(const ResultStore& store,
                     const scenario::ScenarioSpec& spec);

struct ServiceOptions {
  /// Worker threads per computed sweep: 0 = hardware concurrency,
  /// 1 = sequential in the calling thread.
  unsigned threads = 0;
};

struct QueryOutcome {
  CacheOutcome outcome = CacheOutcome::kMiss;
  CacheKey key;
  std::uint64_t trials_reused = 0;    ///< trials served from the store
  std::uint64_t trials_computed = 0;  ///< trials actually run
  /// The seed the served result was computed under. The key excludes
  /// the seed, so this is the ENTRY's canonical seed — the first
  /// writer's — which may differ from the query's.
  std::uint64_t served_seed = 0;
  bool seed_differs = false;  ///< served_seed != the query's base_seed
  scenario::SweepResult result;
  /// Human-readable events worth surfacing (store diagnostics, seed
  /// divergence, write-back failures). Never fatal.
  std::vector<std::string> notes;
};

class SweepService {
 public:
  /// Throws std::runtime_error when the cache directory is unusable
  /// (ResultStore's constructor contract).
  SweepService(std::string cache_dir, ServiceOptions options = {});

  /// Answers `spec` (which must pass scenario::validate — throws
  /// std::runtime_error with the validation error otherwise). Thread
  /// safe; identical concurrent queries share one computation.
  QueryOutcome query(const scenario::ScenarioSpec& spec);

  const ResultStore& store() const noexcept { return store_; }

  /// Monotonic totals across all queries — the daemon's telemetry and
  /// the repeated-query tests' "no trials were rerun" witness — plus the
  /// number of keys with a query in flight.
  struct Stats {
    std::uint64_t queries = 0;
    std::uint64_t hits = 0;
    std::uint64_t topups = 0;
    std::uint64_t misses = 0;
    std::uint64_t trials_computed = 0;
    std::uint64_t trials_reused = 0;
    std::uint64_t key_locks = 0;
  };
  Stats stats() const;

  /// Latency metrics accumulated across queries (store-lookup and
  /// whole-query wall time histograms) — the registry behind the
  /// daemon's {"op": "stats"} response. Always collected (one observe
  /// per query; negligible next to the query itself) and timing-only:
  /// never part of any served result.
  obs::MetricsRegistry metrics_snapshot() const;

 private:
  /// The per-key serialization point for in-flight deduplication.
  struct KeyLock {
    std::mutex mutex;
    std::size_t users = 0;  ///< queries holding or waiting on `mutex`
  };
  /// Registers a query on `key`'s lock; release_key undoes it, and the
  /// last user erases the entry.
  KeyLock& acquire_key(const CacheKey& key);
  void release_key(const CacheKey& key);

  ResultStore store_;
  ServiceOptions options_;
  std::optional<stats::ThreadPool> pool_;

  mutable std::mutex key_locks_guard_;
  std::map<CacheKey, KeyLock> key_locks_;  ///< guarded by key_locks_guard_

  mutable std::mutex stats_guard_;
  Stats stats_;
  obs::MetricsRegistry metrics_;  ///< guarded by stats_guard_
};

}  // namespace lnc::serve
