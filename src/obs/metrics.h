// Mergeable run metrics: named counters, gauges, and log-bucketed latency
// histograms, accumulated lock-free per worker and merged across threads
// and shards exactly like local::Telemetry.
//
// Everything here is TIMING-ONLY observability: metrics never feed back
// into tallies, deterministic telemetry, or cache keys, and the merge of
// a set of registries is bit-identical regardless of merge order or
// partitioning (counters and bucket counts are integers; histogram sums
// use stats::ExactSum, the same order-free superaccumulator the value
// tallies use; gauges merge by max).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "stats/exact_sum.h"

namespace lnc::scenario {
struct Json;
}  // namespace lnc::scenario

namespace lnc::obs {

/// Log-bucketed histogram over nonnegative doubles (latencies in
/// seconds, rates in units/second). Buckets are powers of two:
///   bucket 0                  — value <= 0 (and non-finite input)
///   bucket 1                  — 0 < value < 2^-32 (underflow)
///   bucket 2 + (e + 32)       — 2^e <= value < 2^(e+1), e in [-32, 31]
/// with the top bucket absorbing everything >= 2^31. The exact sum rides
/// along so the mean survives merging without order dependence.
class Histogram {
 public:
  static constexpr int kMinExponent = -32;
  static constexpr int kMaxExponent = 31;
  static constexpr int kBucketCount =
      2 + (kMaxExponent - kMinExponent + 1);  // 66

  /// Bucket index for a value (exposed for the boundary tests).
  static int bucket_index(double value) noexcept;
  /// Inclusive lower bound of a bucket; bucket 0 has no lower bound
  /// (returns -infinity), bucket 1 returns 0.
  static double bucket_lower_bound(int index) noexcept;

  /// Records one observation. Non-finite values are counted in bucket 0
  /// (never added to the exact sum, which requires finite input).
  void observe(double value) noexcept;

  /// Order-free merge: bit-identical result for any merge order or
  /// shard partitioning of the same observation multiset.
  void merge(const Histogram& other) noexcept;

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_.value(); }
  std::string sum_hex() const { return sum_.to_hex(); }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  std::uint64_t bucket(int index) const { return buckets_.at(index); }

  /// JSON object form (sparse buckets as [index, count] pairs):
  ///   {"count": N, "sum": S, "exact_sum": "hex", "min": m, "max": M,
  ///    "buckets": [[33, 7], [34, 1]]}
  std::string to_json() const;
  /// Inverse; unknown keys append a warning "<where>: unknown key ...".
  static Histogram from_json(const scenario::Json& json,
                             const std::string& where,
                             std::vector<std::string>* warnings);

 private:
  // min/max cover FINITE observations only; the +inf/-inf sentinels make
  // merge order-free without an extra "seen anything" flag.
  stats::ExactSum sum_;
  std::uint64_t count_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::array<std::uint64_t, kBucketCount> buckets_{};
};

/// A named bag of counters (merge: sum), gauges (merge: max), and
/// histograms (merge: Histogram::merge). NOT thread-safe: use one
/// registry per worker and merge, exactly like local::Telemetry.
/// std::map keeps JSON key order deterministic.
class MetricsRegistry {
 public:
  void add_counter(const std::string& name, std::uint64_t delta);
  void set_gauge(const std::string& name, double value);
  /// Adds `value` to the named histogram, created empty on first use.
  void observe(const std::string& name, double value);

  bool empty() const noexcept;
  void clear();
  void merge(const MetricsRegistry& other);

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// JSON object form; sections are emitted only when non-empty:
  ///   {"counters": {...}, "gauges": {...}, "histograms": {...}}
  std::string to_json() const;
  static MetricsRegistry from_json(const scenario::Json& json,
                                   const std::string& where,
                                   std::vector<std::string>* warnings);

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Process-wide switch for engine-side metric recording (set by --trace;
/// a relaxed atomic load is the entire disabled-path cost).
bool metrics_enabled() noexcept;
void set_metrics_enabled(bool on) noexcept;

/// The current worker's registry, or nullptr when none is installed —
/// the channel that lets deep engine code (ball collection, vector
/// kernels) record without threading a pointer through every API.
MetricsRegistry* worker_metrics() noexcept;

/// RAII installer for worker_metrics(); restores the previous pointer so
/// nested runners (e.g. a sweep inside a bench harness) stay correct.
class WorkerMetricsScope {
 public:
  explicit WorkerMetricsScope(MetricsRegistry* registry) noexcept;
  ~WorkerMetricsScope();
  WorkerMetricsScope(const WorkerMetricsScope&) = delete;
  WorkerMetricsScope& operator=(const WorkerMetricsScope&) = delete;

 private:
  MetricsRegistry* previous_;
};

}  // namespace lnc::obs
