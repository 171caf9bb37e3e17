// Distributed sweep orchestrator tests (src/orchestrate): manifest JSON
// round trip and corruption handling, supervisor retry / permanent
// failure / straggler timeout, resume-after-kill re-running exactly the
// unfinished shards, spec serialization for job handoff, and the
// end-to-end contract — a LocalProcessTransport fleet of real lnc_sweep
// processes merges BIT FOR BIT to the in-process unsharded run, for a
// success and a value preset.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "orchestrate/launch.h"
#include "orchestrate/manifest.h"
#include "orchestrate/supervisor.h"
#include "orchestrate/transport.h"
#include "scenario/presets.h"
#include "scenario/scenario.h"
#include "scenario/spec_json.h"
#include "scenario/sweep.h"

namespace {

using namespace lnc;
using orchestrate::RunManifest;
using orchestrate::ShardState;
using scenario::ScenarioSpec;

const char* kSweepBinary = LNC_BINARY_DIR "/lnc_sweep";

ScenarioSpec shrunk(const char* preset_name, std::uint64_t trials,
                    std::uint64_t n) {
  const ScenarioSpec* preset = scenario::find_preset(preset_name);
  EXPECT_NE(preset, nullptr) << preset_name;
  ScenarioSpec spec = *preset;
  spec.trials = trials;
  spec.n_grid = {n};
  return spec;
}

/// A fresh directory under the test temp root (removed first, so reruns
/// of the suite start clean).
std::string fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("lnc-orch-" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// The unsharded in-process reference for a spec.
scenario::SweepResult reference_run(const ScenarioSpec& spec) {
  return scenario::run_sweep(scenario::compile(spec));
}

/// Bit-level row equality: tallies, exact accumulators (via their
/// canonical hex words), counter slots, and the deterministic telemetry
/// counters. Timing fields are machine-dependent and excluded.
void expect_rows_bit_identical(const scenario::SweepResult& want,
                               const scenario::SweepResult& got) {
  ASSERT_EQ(want.rows.size(), got.rows.size());
  EXPECT_EQ(want.workload, got.workload);
  for (std::size_t i = 0; i < want.rows.size(); ++i) {
    const local::ShardTally& w = want.rows[i].tally;
    const local::ShardTally& g = got.rows[i].tally;
    EXPECT_EQ(w.trials, g.trials);
    EXPECT_EQ(w.successes, g.successes);
    EXPECT_EQ(w.value_sum.to_hex(), g.value_sum.to_hex());
    EXPECT_EQ(w.value_sum_sq.to_hex(), g.value_sum_sq.to_hex());
    EXPECT_EQ(w.counts, g.counts);
    EXPECT_EQ(w.telemetry.messages_sent, g.telemetry.messages_sent);
    EXPECT_EQ(w.telemetry.words_sent, g.telemetry.words_sent);
    EXPECT_EQ(w.telemetry.rounds_executed, g.telemetry.rounds_executed);
    EXPECT_EQ(w.telemetry.ball_expansions, g.telemetry.ball_expansions);
  }
}

orchestrate::SupervisorOptions quiet_supervisor() {
  orchestrate::SupervisorOptions options;
  options.backoff_ms = 1;  // tests should not sleep for real
  return options;
}

TEST(Manifest, JsonRoundTripPreservesEveryField) {
  RunManifest manifest = orchestrate::make_manifest("/tmp/x", "demo", 3);
  manifest.shards[0].state = ShardState::kDone;
  manifest.shards[0].attempts = 1;
  manifest.shards[1].state = ShardState::kFailed;
  manifest.shards[1].attempts = 4;
  manifest.shards[1].exit_code = 99;
  // Quotes, backslashes, and every control character the escaper names —
  // recorded errors come from arbitrary process output and must survive
  // the save/load round trip (a failed round trip bricks --resume).
  manifest.shards[1].error = "injected \"failure\"\\ \r\n\t\b\f\x01 end";
  manifest.shards[2].state = ShardState::kRunning;
  manifest.shards[2].attempts = 2;
  manifest.shards[2].exit_code = -1;

  const RunManifest parsed = orchestrate::manifest_from_json(
      orchestrate::manifest_to_json(manifest), "/tmp/y");
  EXPECT_EQ(parsed.run_dir, "/tmp/y");  // run_dir is caller-supplied
  EXPECT_EQ(parsed.scenario, "demo");
  EXPECT_EQ(parsed.spec_file, "spec.json");
  EXPECT_EQ(parsed.shard_count, 3u);
  ASSERT_EQ(parsed.shards.size(), 3u);
  for (unsigned shard = 0; shard < 3; ++shard) {
    const orchestrate::ShardRecord& want = manifest.shards[shard];
    const orchestrate::ShardRecord& got = parsed.shards[shard];
    EXPECT_EQ(got.shard, shard);
    EXPECT_EQ(got.state, want.state);
    EXPECT_EQ(got.attempts, want.attempts);
    EXPECT_EQ(got.output, want.output);
    EXPECT_EQ(got.exit_code, want.exit_code);
    EXPECT_EQ(got.error, want.error);
  }
}

TEST(Manifest, SaveLoadRoundTripsThroughTheRunDirectory) {
  const std::string dir = fresh_dir("manifest-io");
  std::filesystem::create_directories(dir);
  RunManifest manifest = orchestrate::make_manifest(dir, "io-demo", 2);
  manifest.shards[1].state = ShardState::kDone;
  std::ofstream(manifest.spec_path())
      << scenario::spec_to_json(shrunk("ring-amos-yes", 24, 16));
  orchestrate::save_manifest(manifest);
  // Atomic save leaves no tmp file behind.
  EXPECT_FALSE(
      std::filesystem::exists(manifest.manifest_path() + ".tmp"));

  const RunManifest loaded = orchestrate::load_manifest(dir);
  EXPECT_EQ(loaded.scenario, "io-demo");
  EXPECT_EQ(loaded.shards[1].state, ShardState::kDone);
  EXPECT_EQ(loaded.output_path(0), dir + "/shard-0.json");
  // A keyless (cold) manifest computes every trial of its frozen spec.
  EXPECT_EQ(loaded.trial_begin, 0u);
  EXPECT_EQ(loaded.trial_end, 24u);
  EXPECT_FALSE(loaded.is_topup());
}

TEST(Manifest, LoadDropsShardsWithEmptySlices) {
  // A run directory planned with 3 shards of a 2-trial spec: shard 2's
  // slice is empty, so the loaded run keeps shards 0 and 1, whose slices
  // are the same 1-trial ranges under 2 shards as under 3.
  const std::string dir = fresh_dir("manifest-wide");
  std::filesystem::create_directories(dir);
  RunManifest manifest = orchestrate::make_manifest(dir, "wide", 3);
  std::ofstream(manifest.spec_path())
      << scenario::spec_to_json(shrunk("ring-amos-yes", 2, 16));
  orchestrate::save_manifest(manifest);

  const RunManifest loaded = orchestrate::load_manifest(dir);
  EXPECT_EQ(loaded.shard_count, 2u);
  EXPECT_EQ(loaded.shards.size(), 2u);
  EXPECT_EQ(loaded.trial_end, 2u);
}

TEST(Manifest, RejectsCorruptInput) {
  EXPECT_THROW(orchestrate::load_manifest(fresh_dir("missing")),
               std::runtime_error);
  // Bad state tag.
  EXPECT_THROW(
      orchestrate::manifest_from_json(
          R"({"scenario": "x", "spec_file": "spec.json", "shard_count": 1,
              "shards": [{"shard": 0, "state": "exploded", "attempts": 0,
                          "output": "shard-0.json"}]})",
          "/tmp/x"),
      std::runtime_error);
  // Shard index out of range.
  EXPECT_THROW(
      orchestrate::manifest_from_json(
          R"({"scenario": "x", "spec_file": "spec.json", "shard_count": 1,
              "shards": [{"shard": 5, "state": "pending", "attempts": 0,
                          "output": "shard-5.json"}]})",
          "/tmp/x"),
      std::runtime_error);
  // Declared count disagrees with the shard list.
  EXPECT_THROW(
      orchestrate::manifest_from_json(
          R"({"scenario": "x", "spec_file": "spec.json", "shard_count": 2,
              "shards": []})",
          "/tmp/x"),
      std::runtime_error);
}

TEST(SpecJson, SpecRoundTripsFieldForField) {
  ScenarioSpec spec = shrunk("gnp-weak-coloring-quality", 40, 48);
  spec.params["edge-prob"] = 0.1;  // not representable — full precision
  spec.base_seed = 18446744073709551615ull;  // 2^64 - 1 survives
  const ScenarioSpec parsed =
      scenario::spec_from_json(scenario::spec_to_json(spec));
  EXPECT_EQ(parsed.name, spec.name);
  EXPECT_EQ(parsed.doc, spec.doc);
  EXPECT_EQ(parsed.topology, spec.topology);
  EXPECT_EQ(parsed.language, spec.language);
  EXPECT_EQ(parsed.construction, spec.construction);
  EXPECT_EQ(parsed.decider, spec.decider);
  EXPECT_EQ(parsed.params, spec.params);  // bit-exact doubles
  EXPECT_EQ(parsed.workload, spec.workload);
  EXPECT_EQ(parsed.statistic, spec.statistic);
  EXPECT_EQ(parsed.n_grid, spec.n_grid);
  EXPECT_EQ(parsed.trials, spec.trials);
  EXPECT_EQ(parsed.base_seed, spec.base_seed);
  EXPECT_EQ(parsed.success_on_accept, spec.success_on_accept);
  EXPECT_EQ(parsed.mode, spec.mode);
  EXPECT_EQ(scenario::validate(parsed), "");
}

TEST(Transport, TemplateRenderingQuotesAndSubstitutes) {
  orchestrate::ShardJob job;
  job.shard = 2;
  job.trial_begin = 12;
  job.trial_end = 18;
  job.spec_path = "/run/spec.json";
  job.output_path = "/run/shard-2.json";

  // Arguments are emitted BARE — quoting cannot survive the template's
  // unknown number of shell evaluations (sh, then maybe ssh's remote
  // shell), so shell-safety is required instead.
  const std::string rendered = orchestrate::render_template(
      "ssh worker{shard} {cmd}", "lnc_sweep", job);
  EXPECT_EQ(rendered,
            "ssh worker2 lnc_sweep --spec /run/spec.json --trial-range "
            "12:18 --out /run/shard-2.json");

  // No {cmd}: the command is appended.
  EXPECT_EQ(orchestrate::render_template("srun -N1", "lnc_sweep", job)
                .substr(0, 9),
            "srun -N1 ");

  // A path the shells would mangle is rejected up front with a clear
  // error, not silently word-split on some remote host.
  orchestrate::ShardJob unsafe = job;
  unsafe.spec_path = "/run dir/spec.json";
  EXPECT_THROW(orchestrate::render_template("ssh w{shard} {cmd}",
                                            "lnc_sweep", unsafe),
               std::runtime_error);

  // Embedded single quotes survive POSIX quoting (one-level helper).
  EXPECT_EQ(orchestrate::shell_quote("a'b"), "'a'\\''b'");
}

TEST(Supervisor, InjectedFailureRetriesThenSucceeds) {
  const ScenarioSpec spec = shrunk("ring-amos-yes", 16, 16);
  const std::string dir = fresh_dir("retry");
  RunManifest manifest = orchestrate::plan_run(spec, dir, 2);

  orchestrate::LocalProcessTransport local(kSweepBinary);
  orchestrate::FaultInjectingTransport flaky(local, /*shard=*/1,
                                             /*times=*/1);
  const orchestrate::LaunchOutcome outcome = orchestrate::execute_run(
      manifest, flaky, quiet_supervisor());
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(manifest.shards[0].attempts, 1u);
  EXPECT_EQ(manifest.shards[1].attempts, 2u);  // one injected failure
  EXPECT_EQ(manifest.shards[1].state, ShardState::kDone);
  expect_rows_bit_identical(reference_run(spec), outcome.merged);
}

TEST(Supervisor, ExhaustedRetriesReportPermanentFailure) {
  const ScenarioSpec spec = shrunk("ring-amos-yes", 8, 16);
  const std::string dir = fresh_dir("permfail");
  RunManifest manifest = orchestrate::plan_run(spec, dir, 2);

  orchestrate::LocalProcessTransport local(kSweepBinary);
  orchestrate::FaultInjectingTransport broken(local, /*shard=*/0,
                                              /*times=*/100);
  orchestrate::SupervisorOptions options = quiet_supervisor();
  options.max_attempts = 2;
  const orchestrate::LaunchOutcome outcome =
      orchestrate::execute_run(manifest, broken, options);
  EXPECT_FALSE(outcome.ok);
  ASSERT_EQ(outcome.failed_shards.size(), 1u);
  EXPECT_EQ(outcome.failed_shards[0], 0u);
  EXPECT_EQ(manifest.shards[0].state, ShardState::kFailed);
  EXPECT_EQ(manifest.shards[0].attempts, 2u);
  EXPECT_EQ(manifest.shards[0].exit_code, 99);
  EXPECT_NE(manifest.shards[0].error.find("injected"), std::string::npos);
  // The healthy shard still landed — failures never poison the merge,
  // they just keep it from happening.
  EXPECT_EQ(manifest.shards[1].state, ShardState::kDone);
  // The saved manifest reflects the failure for --resume.
  const RunManifest reloaded = orchestrate::load_manifest(dir);
  EXPECT_EQ(reloaded.shards[0].state, ShardState::kFailed);
}

TEST(Supervisor, StragglersAreKilledAtTheDeadline) {
  const ScenarioSpec spec = shrunk("ring-amos-yes", 8, 16);
  const std::string dir = fresh_dir("straggler");
  RunManifest manifest = orchestrate::plan_run(spec, dir, 1);

  // A transport whose every job hangs far past the deadline.
  orchestrate::SshTransport hang("sleep 30 && true {cmd}");
  orchestrate::SupervisorOptions options = quiet_supervisor();
  options.max_attempts = 1;
  options.timeout_seconds = 0.2;
  const orchestrate::LaunchOutcome outcome =
      orchestrate::execute_run(manifest, hang, options);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(manifest.shards[0].state, ShardState::kFailed);
  EXPECT_NE(manifest.shards[0].error.find("timed out"), std::string::npos);
}

TEST(Resume, RerunsExactlyTheUnfinishedShards) {
  const ScenarioSpec spec = shrunk("luby-mis-rounds", 12, 32);
  const scenario::SweepResult reference = reference_run(spec);
  const std::string dir = fresh_dir("resume");
  orchestrate::LocalProcessTransport local(kSweepBinary);

  {
    RunManifest manifest = orchestrate::plan_run(spec, dir, 3);
    const orchestrate::LaunchOutcome outcome =
        orchestrate::execute_run(manifest, local, quiet_supervisor());
    ASSERT_TRUE(outcome.ok) << outcome.error;
  }

  // Simulate a killed coordinator: shard 1 recorded failed, shard 2
  // recorded done but its output file is gone.
  RunManifest crashed = orchestrate::load_manifest(dir);
  crashed.shards[1].state = ShardState::kFailed;
  crashed.shards[1].error = "simulated crash";
  orchestrate::save_manifest(crashed);
  std::filesystem::remove(crashed.output_path(2));

  RunManifest resumed = orchestrate::load_manifest(dir);
  const orchestrate::LaunchOutcome outcome =
      orchestrate::execute_run(resumed, local, quiet_supervisor());
  ASSERT_TRUE(outcome.ok) << outcome.error;
  // Shard 0 was left alone; 1 and 2 re-ran exactly once more.
  EXPECT_EQ(resumed.shards[0].attempts, 1u);
  EXPECT_EQ(resumed.shards[1].attempts, 2u);
  EXPECT_EQ(resumed.shards[2].attempts, 2u);
  expect_rows_bit_identical(reference, outcome.merged);
}

TEST(Resume, PlanRefusesToClobberAnExistingRun) {
  const ScenarioSpec spec = shrunk("ring-amos-yes", 8, 16);
  const std::string dir = fresh_dir("clobber");
  orchestrate::plan_run(spec, dir, 2);
  EXPECT_THROW(orchestrate::plan_run(spec, dir, 2), std::runtime_error);
}

TEST(EndToEnd, SuccessPresetMergesBitIdenticalToUnsharded) {
  const ScenarioSpec spec = shrunk("ring-amos-yes", 24, 16);
  const std::string dir = fresh_dir("e2e-success");
  RunManifest manifest = orchestrate::plan_run(spec, dir, 3);
  orchestrate::LocalProcessTransport local(kSweepBinary);
  const orchestrate::LaunchOutcome outcome =
      orchestrate::execute_run(manifest, local, quiet_supervisor());
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_TRUE(outcome.merged.complete());
  expect_rows_bit_identical(reference_run(spec), outcome.merged);
}

TEST(EndToEnd, ValuePresetMergesBitIdenticalToUnsharded) {
  const ScenarioSpec spec = shrunk("luby-mis-rounds", 18, 32);
  const std::string dir = fresh_dir("e2e-value");
  RunManifest manifest = orchestrate::plan_run(spec, dir, 3);
  orchestrate::LocalProcessTransport local(kSweepBinary);
  const orchestrate::LaunchOutcome outcome =
      orchestrate::execute_run(manifest, local, quiet_supervisor());
  ASSERT_TRUE(outcome.ok) << outcome.error;
  expect_rows_bit_identical(reference_run(spec), outcome.merged);
  // The merged mean/stddev equal the in-process run's doubles exactly.
  const stats::MeanEstimate want = scenario::row_mean(
      reference_run(spec).rows[0]);
  const stats::MeanEstimate got = scenario::row_mean(outcome.merged.rows[0]);
  EXPECT_EQ(want.mean, got.mean);
  EXPECT_EQ(want.stddev, got.stddev);
}

TEST(Manifest, TrialRangeRoundTripsAndStaysOptional) {
  RunManifest manifest = orchestrate::make_manifest("/tmp/x", "demo", 2);
  // Classic manifests must not grow range keys: older binaries resume
  // them, and byte-stable JSON is the compatibility contract.
  EXPECT_EQ(orchestrate::manifest_to_json(manifest).find("trial_begin"),
            std::string::npos);
  EXPECT_FALSE(manifest.is_topup());

  manifest.trial_begin = 30;
  manifest.trial_end = 80;
  const RunManifest parsed = orchestrate::manifest_from_json(
      orchestrate::manifest_to_json(manifest), "/tmp/x");
  EXPECT_TRUE(parsed.is_topup());
  EXPECT_EQ(parsed.trial_begin, 30u);
  EXPECT_EQ(parsed.trial_end, 80u);
  EXPECT_EQ(parsed.baseline_path(), "/tmp/x/baseline.json");
}

TEST(EndToEnd, TopUpFleetMergesBitIdenticalToColdRun) {
  // A cached 14-trial baseline + a 3-shard fleet over trials [14, 40)
  // must reassemble the exact cold 40-trial result — the cache tier's
  // acceptance property at the orchestrator level.
  ScenarioSpec small = shrunk("luby-mis-rounds", 14, 32);
  ScenarioSpec big = small;
  big.trials = 40;
  const scenario::SweepResult baseline = reference_run(small);

  const std::string dir = fresh_dir("e2e-topup");
  RunManifest manifest = orchestrate::plan_run(big, dir, 3, &baseline);
  EXPECT_TRUE(manifest.is_topup());
  EXPECT_EQ(manifest.trial_begin, 14u);
  EXPECT_EQ(manifest.trial_end, 40u);
  ASSERT_TRUE(std::filesystem::exists(manifest.baseline_path()));

  orchestrate::LocalProcessTransport local(kSweepBinary);
  const orchestrate::LaunchOutcome outcome =
      orchestrate::execute_run(manifest, local, quiet_supervisor());
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_TRUE(outcome.merged.complete());
  EXPECT_EQ(outcome.merged.trial_end, 40u);
  expect_rows_bit_identical(reference_run(big), outcome.merged);
}

TEST(EndToEnd, TopUpPlanningRejectsBadBaselines) {
  ScenarioSpec small = shrunk("ring-amos-yes", 10, 16);
  const scenario::SweepResult baseline = reference_run(small);
  // Nothing to top up: the baseline already covers the request.
  EXPECT_THROW(
      orchestrate::plan_run(small, fresh_dir("topup-none"), 1, &baseline),
      std::runtime_error);
  // More shards than missing trials would degrade an empty slice into a
  // full-width job — must be refused outright.
  ScenarioSpec big = small;
  big.trials = 12;
  EXPECT_THROW(
      orchestrate::plan_run(big, fresh_dir("topup-wide"), 3, &baseline),
      std::runtime_error);
}

TEST(Resume, ColdPlanRefusesMoreShardsThanTrials) {
  // Every shard runs a non-empty trial range, so a cold 2-trial run
  // takes at most 2 shards (lnc_launch clamps before planning).
  const ScenarioSpec spec = shrunk("ring-amos-yes", 2, 16);
  EXPECT_THROW(orchestrate::plan_run(spec, fresh_dir("cold-wide"), 3),
               std::runtime_error);
  EXPECT_THROW(orchestrate::plan_run(spec, fresh_dir("cold-none"), 0),
               std::runtime_error);
  const RunManifest manifest =
      orchestrate::plan_run(spec, fresh_dir("cold-exact"), 2);
  EXPECT_EQ(manifest.trial_begin, 0u);
  EXPECT_EQ(manifest.trial_end, 2u);
}

}  // namespace
