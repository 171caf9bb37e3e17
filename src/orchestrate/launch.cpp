#include "orchestrate/launch.h"

#include <filesystem>
#include <stdexcept>

#include "obs/trace.h"
#include "scenario/spec_json.h"
#include "util/file_util.h"

namespace lnc::orchestrate {

RunManifest plan_run(const scenario::ScenarioSpec& spec,
                     const std::string& run_dir, unsigned shard_count,
                     const scenario::SweepResult* baseline) {
  const std::string error = scenario::validate(spec);
  if (!error.empty()) {
    throw std::runtime_error("invalid scenario '" + spec.name +
                             "': " + error);
  }
  const std::uint64_t begin = baseline != nullptr ? baseline->trial_end : 0;
  if (baseline != nullptr && !baseline->complete()) {
    throw std::runtime_error(
        "top-up baseline is incomplete — merge it (or rerun) first");
  }
  if (baseline != nullptr &&
      (baseline->trial_begin != 0 || begin >= spec.trials)) {
    throw std::runtime_error(
        "top-up baseline covers trials [" +
        std::to_string(baseline->trial_begin) + ", " + std::to_string(begin) +
        ") but the spec asks for " + std::to_string(spec.trials) +
        " — nothing to top up (or a non-prefix baseline)");
  }
  const std::uint64_t width = spec.trials - begin;
  if (shard_count == 0 || shard_count > width) {
    throw std::runtime_error(
        "a run of " + std::to_string(width) + " trial(s) needs between 1 "
        "and " + std::to_string(width) + " shards (asked for " +
        std::to_string(shard_count) + ")");
  }
  std::filesystem::create_directories(run_dir);
  if (std::filesystem::exists(run_dir + "/manifest.json")) {
    throw std::runtime_error(
        "'" + run_dir + "' already holds a run manifest — resume it (or "
        "pick a fresh directory); restarting in place would discard "
        "completed shards");
  }

  RunManifest manifest = make_manifest(run_dir, spec.name, shard_count);
  manifest.trial_begin = begin;
  manifest.trial_end = spec.trials;
  const std::string write_error = util::write_file_atomic(
      manifest.spec_path(), scenario::spec_to_json(spec));
  if (!write_error.empty()) {
    throw std::runtime_error("spec freeze failed: " + write_error);
  }
  if (baseline != nullptr) {
    const std::string baseline_error =
        scenario::write_json_file(manifest.baseline_path(), *baseline);
    if (!baseline_error.empty()) {
      throw std::runtime_error("baseline freeze failed: " + baseline_error);
    }
  }
  save_manifest(manifest);
  return manifest;
}

LaunchOutcome merge_run(const RunManifest& manifest) {
  const obs::Span merge_span(
      "merge", obs::span_args("shards", static_cast<std::uint64_t>(
                                            manifest.shards.size())));
  LaunchOutcome outcome;
  for (const ShardRecord& record : manifest.shards) {
    if (record.state != ShardState::kDone) {
      outcome.failed_shards.push_back(record.shard);
    }
  }
  if (!outcome.failed_shards.empty()) {
    outcome.error = "not every shard is done; failures never reach the "
                    "merge, so the aggregate stays exact";
    return outcome;
  }
  // A top-up's cached prefix is one more range part: the merge orders
  // every part by its trial range.
  std::vector<std::string> paths;
  if (manifest.is_topup()) paths.push_back(manifest.baseline_path());
  for (const ShardRecord& record : manifest.shards) {
    paths.push_back(manifest.output_path(record.shard));
  }
  try {
    outcome.merged = scenario::merge_sweep_files(paths, &outcome.warnings);
  } catch (const std::exception& ex) {
    outcome.error = ex.what();
    return outcome;
  }
  outcome.ok = true;
  return outcome;
}

LaunchOutcome execute_run(RunManifest& manifest, Transport& transport,
                          const SupervisorOptions& options,
                          unsigned sweep_threads) {
  JobSupervisor supervisor(transport, options);
  supervisor.run(manifest, sweep_threads);
  return merge_run(manifest);
}

}  // namespace lnc::orchestrate
