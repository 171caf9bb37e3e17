// The persistent state of one distributed sweep run (ROADMAP "remote
// shard launcher").
//
// A run lives in a RUN DIRECTORY holding the frozen scenario spec
// (spec.json — the job handoff unit, scenario::spec_to_json), one result
// file per shard (shard-<i>.json, the lnc_sweep --out format), per-shard
// launch logs, and manifest.json: each shard's state, attempt count, and
// last failure. The manifest is rewritten ATOMICALLY (tmp + rename) after
// every state transition, so a coordinator killed mid-run leaves a
// directory that `lnc_launch --resume <dir>` can pick up — only shards
// not recorded done (or whose output file went missing) re-run, and the
// final merge is still bit-identical to the unsharded sweep.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/scenario.h"

namespace lnc::orchestrate {

/// Lifecycle of one shard job. kRunning persists only when a coordinator
/// died mid-attempt — resume treats it like kPending. kFailed means the
/// supervisor exhausted its attempt budget; resume grants a fresh budget.
enum class ShardState { kPending, kRunning, kDone, kFailed };

const char* to_string(ShardState state) noexcept;
std::optional<ShardState> shard_state_from_string(
    std::string_view text) noexcept;

struct ShardRecord {
  unsigned shard = 0;
  ShardState state = ShardState::kPending;
  /// Launch attempts so far, cumulative across resumes.
  unsigned attempts = 0;
  /// Run-dir-relative result path (the shard's `lnc_sweep --out` target).
  std::string output;
  /// Last attempt's exit code (0 until a launch finished).
  int exit_code = 0;
  /// Last attempt's failure description; empty after a success.
  std::string error;
};

struct RunManifest {
  /// Where this manifest lives. NOT serialized — set by load/make, so a
  /// run directory stays relocatable (paths inside are relative).
  std::string run_dir;

  std::string scenario;                 ///< spec name (labels status lines)
  std::string spec_file = "spec.json";  ///< run-dir-relative spec path
  unsigned shard_count = 0;
  /// The trials [trial_begin, trial_end) of the frozen spec this run
  /// computes; the shards split it. A cold run computes [0, trials). A
  /// TOP-UP run (plan_run with a cached baseline) starts at the
  /// baseline's end, and baseline.json joins the merge as [0,
  /// trial_begin). Only top-ups serialize the range: manifest_from_json
  /// leaves a keyless manifest's range empty, and load_manifest reads it
  /// from the frozen spec.
  std::uint64_t trial_begin = 0;
  std::uint64_t trial_end = 0;
  std::vector<ShardRecord> shards;      ///< one per shard, index-ordered

  std::string manifest_path() const;
  std::string spec_path() const;
  /// Absolute path of a shard's result file.
  std::string output_path(unsigned shard) const;
  /// Absolute path of a shard's launch log (stdout+stderr of attempts).
  std::string log_path(unsigned shard) const;
  /// Absolute path of the cached baseline result a top-up run extends.
  std::string baseline_path() const;

  bool is_topup() const noexcept { return trial_begin > 0; }
  bool all_done() const noexcept;
};

/// A fresh manifest for a new run: shard i pending with output
/// shard-<i>.json. Does not touch the filesystem.
RunManifest make_manifest(std::string run_dir, const std::string& scenario,
                          unsigned shard_count);

std::string manifest_to_json(const RunManifest& manifest);
/// Throws std::runtime_error on malformed text (missing keys, bad states,
/// shard indices out of range or duplicated).
RunManifest manifest_from_json(const std::string& text, std::string run_dir);

/// Atomic write of run_dir/manifest.json (tmp file + rename): a kill
/// mid-save never leaves a torn manifest.
void save_manifest(const RunManifest& manifest);

/// Reads run_dir/manifest.json, taking a keyless manifest's range as
/// [0, trials) of the frozen spec and dropping shards past one per trial
/// (their slices are empty); throws std::runtime_error when the
/// directory holds no (or a corrupt) manifest or spec.
RunManifest load_manifest(std::string run_dir);

}  // namespace lnc::orchestrate
