// Whole-run orchestration: spec in, bit-identical merged SweepResult out.
//
//   plan_run    — freeze a validated spec (and a top-up's cached
//                 baseline) into a fresh run directory (spec.json +
//                 manifest.json, every shard pending);
//   execute_run — supervise the manifest's jobs over a Transport
//                 (orchestrate/supervisor.h), then gather;
//   merge_run   — read the shard result files of a fully-done manifest
//                 (plus baseline.json for a top-up) and merge them by
//                 trial range (scenario::merge_sweep_files), exactly what
//                 `lnc_sweep --merge` of the same files would produce —
//                 bit-identical to the unsharded run.
//
// lnc_launch drives these; tests/orchestrate_test.cpp asserts the
// end-to-end identity and the resume semantics.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "orchestrate/manifest.h"
#include "orchestrate/supervisor.h"
#include "orchestrate/transport.h"
#include "scenario/sweep.h"

namespace lnc::orchestrate {

/// Creates the run directory (parents included), writes the frozen spec
/// and a fresh all-pending manifest, and returns it. The fleet computes
/// trials [b, spec.trials) of `spec` in shard_count contiguous ranges,
/// where b is 0 for a cold run. A TOP-UP run passes a cached `baseline`,
/// a complete result covering [0, b) with b < spec.trials, computed
/// under `spec` at fewer trials (the same seed: the cache key's
/// canonical one); it is frozen as baseline.json and merged in front of
/// the shard outputs, bit-identical to a cold run. Throws when the spec
/// does not validate, on such a bad baseline, when shard_count is 0 or
/// exceeds the trials to run (a shard needs a non-empty range), when the
/// directory already holds a manifest (resume instead — silently
/// restarting would discard completed shards), or on I/O failure.
RunManifest plan_run(const scenario::ScenarioSpec& spec,
                     const std::string& run_dir, unsigned shard_count,
                     const scenario::SweepResult* baseline = nullptr);

struct LaunchOutcome {
  bool ok = false;  ///< every shard done and the merge succeeded
  scenario::SweepResult merged;            ///< meaningful when ok
  std::vector<std::string> warnings;       ///< shard-file parse warnings
  std::vector<unsigned> failed_shards;     ///< permanently failed shards
  std::string error;  ///< merge-stage failure description (empty when ok)
};

/// Supervises every unfinished shard, then merges. `sweep_threads` is the
/// per-shard `lnc_sweep --threads` value (thread counts cannot change the
/// numbers — the merge is exact either way).
LaunchOutcome execute_run(RunManifest& manifest, Transport& transport,
                          const SupervisorOptions& options,
                          unsigned sweep_threads = 1);

/// Gather-only: merges the output files of an already-done manifest
/// (and a top-up's baseline.json) in one scenario::merge_sweep_files
/// call.
LaunchOutcome merge_run(const RunManifest& manifest);

}  // namespace lnc::orchestrate
