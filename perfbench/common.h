// Shared plumbing of the benchmark driver: options, the report each
// workload fills, latency samples, and the deterministic fingerprint the
// output checks compare.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "scenario/sweep.h"

namespace perfbench {

/// What one driver process is asked to do.
///   run   — set up, measure for `seconds`, check every output;
///   setup — set up only (run.py repeats it to take a median set-up time);
///   trace — per-layer mode: a plain and a traced pass of the workload
///           (whose per-layer metrics it fills), then the layer probes.
/// `small` shrinks any mode to the smoke size: every check on, seconds
/// of work. The driver runs with its work directory as the current
/// directory, so workloads use relative paths for sockets and stores.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string mode = "run";
  bool small = false;
  std::string serve_bin;   ///< the lnc_serve binary (serve-curves)
  std::string trace_path;  ///< trace mode: the Chrome trace to write

  bool setup_only() const { return mode == "setup"; }
  bool smoke() const { return small; }
  bool trace() const { return mode == "trace"; }
};

/// Latencies of one request class, in milliseconds.
struct Samples {
  std::vector<double> ms;

  void add_seconds(double seconds) { ms.push_back(seconds * 1e3); }
  /// Linear interpolation between closest ranks (0 when empty).
  double percentile(double p) const;
  double sum() const;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, for the log
  double setup_s = 0.0;
  /// End-to-end metrics (run mode) by BENCHMARK.json name.
  std::map<std::string, double> metrics;
  /// Request classes whose latencies are reported with their counts.
  std::map<std::string, Samples> latency;
  /// Per-layer metrics (trace mode) and where each one was measured.
  std::map<std::string, double> layer;
  std::map<std::string, std::string> layer_source;

  /// Counts one operation; a false `ok` counts it as failed.
  void op(bool ok, const std::string& what);
  /// Records a per-layer metric unless one of that name is already set.
  void set_layer(const std::string& name, double value,
                 const std::string& source);
};

/// The deterministic fields of a result — tallies, exact-sum words,
/// counter slots and the deterministic telemetry counters — as text.
/// Two runs of the same spec must produce equal fingerprints.
std::string fingerprint(const lnc::scenario::SweepResult& result);

/// Σ actual_n × executed trials over the rows.
double node_trials(const lnc::scenario::SweepResult& result);

/// A field of /proc/<pid>/status ("VmHWM", "Threads"), as its leading
/// number (kB for memory); -1 when unreadable. pid 0 reads /proc/self.
double proc_status_field(int pid, const std::string& field);

/// Turns span recording and engine-side metrics on or off together.
void set_tracing(bool on);

/// Seconds on the steady clock since an arbitrary epoch.
double now_seconds();

/// Per-workload seeds derived from the run seed (splitmix64 chain).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// Per-layer metrics every workload's traced run can read off its
/// results: work counts and deterministic telemetry per node-trial, and
/// the busy share of `workers` threads over the rows' elapsed time.
void layer_metrics_from_results(
    const std::vector<lnc::scenario::SweepResult>& results,
    unsigned workers, const std::string& source, Report& report);

/// local.vectorized_trial_share: the share of the compiled trials whose
/// plan resolved to the vectorized backend (compile resolves kAuto per
/// grid point).
void vectorized_share(const std::vector<lnc::scenario::CompiledScenario>& all,
                      const std::string& source, Report& report);

/// scenario.json_* and serve.lookup/store/entry metrics measured on the
/// workload's own results: each (spec, result) is serialized, parsed
/// back, stored into a fresh ResultStore, and looked up again. Round
/// trips are checked, so they count as operations.
void layer_metrics_from_entries(
    const std::vector<lnc::scenario::ScenarioSpec>& specs,
    const std::vector<lnc::scenario::SweepResult>& results,
    const std::string& source, Report& report);

// Workloads (workloads.cpp, serve_client.cpp) and the layer probes
// (probes.cpp). Each fills `report` according to options.mode.
void preset_sweep(const Options& options, Report& report);
void stream_ring(const Options& options, Report& report);
void serve_curves(const Options& options, Report& report);
void layer_probes(const Options& options, Report& report);

}  // namespace perfbench
