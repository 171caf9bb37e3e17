// Executing compiled scenarios — whole, or one trial range of a
// cross-process run (ROADMAP "Sharded batch execution").
//
// A shard IS a trial range [begin, end) of every grid point's
// [0, trials): `lnc_sweep --shard i/k` runs local::shard_range(trials, i,
// k), `--trial-range B:E` and cache top-ups run explicit slices. Per-trial
// Philox streams are pure functions of the trial index, so merging the
// tallies of any partition of [0, trials) reproduces the unsharded
// Estimate BIT FOR BIT (tests/scenario_test.cpp asserts this), whatever
// mix of shards and slices produced it. Results round-trip through JSON
// so ranges can run on different machines and be merged offline, in any
// order.
#pragma once

#include <iosfwd>
#include <optional>
#include <span>

#include "obs/metrics.h"
#include "scenario/scenario.h"
#include "scenario/spec_json.h"
#include "util/table.h"

namespace lnc::obs {
class Progress;
}  // namespace lnc::obs

namespace lnc::scenario {

struct SweepOptions {
  /// The trial slice [begin, end) to run; unset runs every trial. An
  /// i-of-k shard is local::shard_range(trials, i, k); incremental
  /// top-ups (serve::SweepService, lnc_sweep --trial-range) run [T', T).
  /// Requires end <= the spec's trial count. Per-trial seeds depend only
  /// on the trial index, so a ranged result merges bit-identically with
  /// any abutting ranges (merge_trial_ranges).
  std::optional<local::TrialRange> trial_range;
  const stats::ThreadPool* pool = nullptr;  ///< null => sequential trials
  /// Optional live-progress heartbeat, ticked once per completed trial
  /// (lnc_sweep --progress). Timing-only: never affects results.
  obs::Progress* progress = nullptr;
};

struct SweepRow {
  std::uint64_t requested_n = 0;
  std::uint64_t actual_n = 0;        ///< instance node count realized
  std::uint64_t total_trials = 0;    ///< the plan's full trial count
  local::ShardTally tally;           ///< this result's executed share,
                                     ///< including its telemetry block
  /// TRUE elapsed wall-clock for this row's local computation (start to
  /// finish of the grid point, one measurement per run) — unlike
  /// telemetry.wall_seconds, which SUMS per-trial time across workers
  /// and so exceeds elapsed time on multi-threaded runs. Summed when
  /// merging shards (total machine-time across the fleet). Machine-
  /// dependent; never part of the deterministic contract.
  double elapsed_seconds = 0.0;
};

struct SweepResult {
  std::string scenario;
  std::uint64_t base_seed = 0;
  /// The workload the rows tally (which ShardTally block is meaningful).
  local::WorkloadKind workload = local::WorkloadKind::kSuccess;
  /// The backend the spec requested (kAuto unless forced). Shards run
  /// under different backends still merge — that bit-identity is the
  /// contract — but merge_sweep_files warns on a mismatch so a mixed
  /// fleet is visible rather than silent.
  local::OptimizationConfig::Backend backend =
      local::OptimizationConfig::Backend::kAuto;
  /// The contiguous trial slice the rows tally, [trial_begin, trial_end);
  /// complete results cover [0, total_trials). Carried through JSON, so
  /// every result merges by explicit extent (files from binaries that
  /// wrote only an i-of-k index read back as that shard's range).
  std::uint64_t trial_begin = 0;
  std::uint64_t trial_end = 0;
  std::vector<SweepRow> rows;
  /// Observability metrics merged across the sweep's workers (per-trial
  /// wall-time / throughput histograms and friends). Empty unless
  /// obs::metrics_enabled() was set during the run (lnc_sweep --trace);
  /// lands in the JSON as an optional top-level `metrics` block and
  /// merges across shards order-free. Timing-only — ignored by every
  /// determinism gate.
  obs::MetricsRegistry metrics;

  /// True when every row covers its total_trials (unsharded or merged).
  bool complete() const noexcept {
    for (const SweepRow& row : rows) {
      if (row.tally.trials != row.total_trials) return false;
    }
    return true;
  }
};

/// Executes (one trial range of) a compiled scenario.
SweepResult run_sweep(const CompiledScenario& scenario,
                      const SweepOptions& options = {});

/// Pre-flight check for merge_trial_ranges: empty string when the parts
/// are range-partitioned results of the same scenario run (name, seed,
/// n-grid, workload, counter widths) that start at trial 0, abut exactly
/// in the given order (no gap, overlap or disorder; each part's rows
/// tally exactly its [trial_begin, trial_end) extent), and together end
/// at the largest total_trials any part declares — so a lone shard of a
/// larger run is refused. Otherwise a human-readable description of the
/// first problem; CLI callers surface it instead of hitting the library
/// asserts below. Parts may disagree on total_trials: a cached result at
/// T' merges with a [T', T) top-up into a result at T.
std::string can_merge_trial_ranges(std::span<const SweepResult> parts);

/// Merges contiguous trial-range partitions in order of trial_begin —
/// i-of-k shards, --trial-range slices, or cached accumulators over
/// [0, T') plus a delta over [T', T) — into the run-at-T result BIT FOR
/// BIT (per-trial seeds depend only on the trial index, never on the
/// total count). The merged rows' total_trials is the final part's
/// trial_end. Asserts on input can_merge_trial_ranges rejects.
SweepResult merge_trial_ranges(std::span<const SweepResult> parts);

/// The Wilson estimate of a complete success row.
stats::Estimate row_estimate(const SweepRow& row);

/// The exact-sum mean/stddev of a complete value row. Because the row's
/// accumulators are exact, the result is bit-identical whether the row
/// came from one unsharded run or any merged shard partition.
stats::MeanEstimate row_mean(const SweepRow& row);

/// All rows' telemetry merged (the whole-sweep communication volume).
local::Telemetry result_telemetry(const SweepResult& result);

/// Human-readable table (estimate/mean/count columns only for complete
/// results; workload-appropriate columns per row). `with_telemetry`
/// appends the deterministic communication-volume columns
/// (msgs / words / rounds / balls) to every row.
util::Table to_table(const SweepResult& result, bool with_telemetry = false);

/// Grep-stable per-row summary lines for complete value/counter results
/// (full %.17g precision, so diffing the lines across thread counts and
/// shard layouts asserts the exact-merge contract at the CLI level):
///
///   value[scenario/nN]: mean=M stddev=S trials=T
///   counter[scenario/nN]: sum=C mean=M trials=T
///
/// Empty for success workloads and for incomplete (sharded) results.
std::vector<std::string> summary_lines(const SweepResult& result);

/// Result-file JSON round trip (cross-process merge). Rows carry a
/// `telemetry` block plus, per workload, a `values` block (human-readable
/// sum/sum_sq doubles AND the authoritative exact-sum hex words) or a
/// `counts` array; readers tolerate their absence (files written by
/// older binaries merge with zeroed blocks). Unrecognized keys are
/// reported through `warnings` when non-null — the guard that surfaces
/// stale shard files written by a different binary generation.
/// The file additionally stamps the writing binary's identity
/// (`seed_stream_epoch`, `build_rev` — util/build_info.h); readers
/// tolerate their absence and warn when the file's epoch differs from
/// the running binary's, so a stale result is diagnosable, not wrong.
/// A file without `trial_begin`/`trial_end` (written before results
/// carried their range) reads its `shard`/`shard_count` index as
/// local::shard_range(total_trials, shard, shard_count); an index out of
/// range throws std::runtime_error.
void write_json(std::ostream& os, const SweepResult& result);
SweepResult sweep_from_json(const std::string& text,
                            std::vector<std::string>* warnings = nullptr);

/// Same, from an already-parsed JSON object — used where a result is
/// embedded inside a larger document (serve cache entry files).
SweepResult sweep_from_json(const Json& root,
                            std::vector<std::string>* warnings = nullptr);

/// Writes a result file ATOMICALLY (tmp + rename) — the file either holds
/// the complete JSON or does not exist; a torn write, a full disk, or a
/// straggler process killed mid-write can never leave a partial file for
/// a merge to trip over. Returns an empty string on success, else a
/// human-readable error (the tmp file is cleaned up). Shared by
/// `lnc_sweep --out` and the launch coordinator's merged output.
std::string write_json_file(const std::string& path,
                            const SweepResult& result);

/// Reads result files in any order, stable-sorts them by trial range, and
/// merges them with merge_trial_ranges — the gather step shared by
/// `lnc_sweep --merge` and the distributed launcher (src/orchestrate,
/// top-up baselines included). Throws std::runtime_error naming the
/// offending file on an unreadable/unparseable path and with
/// can_merge_trial_ranges' diagnostic when the parts do not fit
/// together; per-file parse warnings are prefixed with their path.
SweepResult merge_sweep_files(std::span<const std::string> paths,
                              std::vector<std::string>* warnings = nullptr);

}  // namespace lnc::scenario
