// The two batch workloads: preset-sweep (the shipped catalogue, as
// `lnc_sweep --all` runs it) and stream-ring (giga-scale-style implicit
// trials, one per worker in each call). Both drive scenario::compile and
// scenario::run_sweep from outside on a 4-worker pool.
#include <algorithm>
#include <set>

#include "common.h"
#include "obs/trace.h"
#include "scenario/presets.h"
#include "stats/threadpool.h"

namespace perfbench {
namespace {

using namespace lnc;

constexpr unsigned kWorkers = 4;

/// Presets whose documentation promises success on every trial.
const std::set<std::string> kAlwaysSucceeds = {
    "random-regular-mis-luby", "tree-matching", "hard-ring-cole-vishkin"};

scenario::CompiledScenario traced_compile(const scenario::ScenarioSpec& spec,
                                          double& seconds) {
  const obs::Span span("scenario.compile");
  const double start = now_seconds();
  scenario::CompiledScenario compiled = scenario::compile(spec);
  seconds += now_seconds() - start;
  return compiled;
}

scenario::SweepResult traced_run_sweep(
    const scenario::CompiledScenario& compiled,
    const scenario::SweepOptions& options, Samples* latency) {
  const obs::Span span("scenario.run_sweep");
  const double start = now_seconds();
  scenario::SweepResult result = scenario::run_sweep(compiled, options);
  if (latency != nullptr) latency->add_seconds(now_seconds() - start);
  return result;
}

/// Whether one more unit of work, at its mean duration so far, would end
/// nearer the run's deadline than stopping now — so a run lasts
/// `seconds` to within half a unit, even when a unit takes seconds.
bool another_fits(const Samples& done, double start, double seconds) {
  const double mean_s = done.sum() / 1e3 / static_cast<double>(done.ms.size());
  return now_seconds() - start + mean_s / 2 < seconds;
}

double peak_rss_mb(int pid) { return proc_status_field(pid, "VmHWM") / 1024.0; }

}  // namespace

void preset_sweep(const Options& options, Report& report) {
  const std::string source = "preset-sweep";
  const double setup_start = now_seconds();
  double compile_s = 0;
  std::vector<scenario::ScenarioSpec> specs;
  std::vector<scenario::CompiledScenario> compiled;
  for (const scenario::ScenarioSpec& preset : scenario::preset_scenarios()) {
    scenario::ScenarioSpec spec = preset;
    spec.base_seed = derive_seed(options.seed, specs.size());
    if (options.smoke()) {
      spec.trials = std::min<std::uint64_t>(spec.trials, 8);
      spec.n_grid.erase(
          spec.n_grid.begin() + std::min<std::ptrdiff_t>(spec.n_grid.size(), 2),
          spec.n_grid.end());
    }
    compiled.push_back(traced_compile(spec, compile_s));
    specs.push_back(std::move(spec));
  }
  const stats::ThreadPool pool(kWorkers);
  scenario::SweepOptions sweep_options;
  sweep_options.pool = &pool;
  report.setup_s = now_seconds() - setup_start;
  if (options.setup_only()) return;

  // One pass runs every preset once; each call is checked against the
  // first pass on the deterministic fields.
  std::vector<std::string> reference(compiled.size());
  double work = 0;
  auto check = [&](std::size_t i, const scenario::SweepResult& result) {
    const std::string print = fingerprint(result);
    if (reference[i].empty()) reference[i] = print;
    bool ok = print == reference[i];
    if (kAlwaysSucceeds.count(specs[i].name) != 0) {
      for (const scenario::SweepRow& row : result.rows) {
        ok = ok && row.tally.successes == row.tally.trials;
      }
    }
    report.op(ok, specs[i].name + ": run differs from the first run or "
                                  "a must-succeed preset failed a trial");
  };
  auto pass = [&](Samples* calls, Samples* passes) {
    std::vector<scenario::SweepResult> results;
    const double start = now_seconds();
    for (std::size_t i = 0; i < compiled.size(); ++i) {
      results.push_back(traced_run_sweep(compiled[i], sweep_options, calls));
      check(i, results.back());
      work += node_trials(results.back());
    }
    passes->add_seconds(now_seconds() - start);
    return results;
  };

  Samples& calls = report.latency["call"];
  Samples& passes = report.latency["pass"];
  if (!options.trace()) {
    const double start = now_seconds();
    do {
      pass(&calls, &passes);
    } while (passes.ms.size() < 2 ||
             (!options.smoke() && another_fits(passes, start, options.seconds)));
    report.metrics["node_trials_per_s"] = work / (passes.sum() / 1e3);
    report.metrics["request_p50_ms"] = calls.percentile(50);
    report.metrics["request_p90_ms"] = calls.percentile(90);
    report.metrics["compute_p50_ms"] = passes.percentile(50);
    report.metrics["peak_rss_mb"] = peak_rss_mb(0);
    return;
  }

  // Traced run: after a warm-up pass, every preset runs plain and traced
  // back to back, each going first equally often, so drift on a shared
  // machine and a warm second run fall on both sides alike.
  set_tracing(false);
  std::vector<scenario::SweepResult> results = pass(nullptr, &passes);
  Samples traced_calls;
  for (std::size_t rep = 0; rep < 4; ++rep) {
    for (std::size_t i = 0; i < compiled.size(); ++i) {
      for (std::size_t side = 0; side < 2; ++side) {
        const bool traced = (rep + i + side) % 2 == 1;
        set_tracing(traced);
        scenario::SweepResult result = traced_run_sweep(
            compiled[i], sweep_options, traced ? &traced_calls : &calls);
        check(i, result);
        if (!traced) results[i] = std::move(result);
      }
    }
  }
  set_tracing(true);
  report.set_layer("obs.overhead", traced_calls.sum() / calls.sum() - 1.0,
                   source);

  // Trial-range halves merged must reproduce the whole pass bit for bit.
  double merge_s = 0;
  int merges = 0;
  for (std::size_t i = 0; i < compiled.size(); ++i) {
    const std::uint64_t trials = specs[i].trials;
    if (trials < 2) continue;
    std::vector<scenario::SweepResult> parts;
    for (const local::TrialRange range :
         {local::TrialRange{0, trials / 2}, local::TrialRange{trials / 2, trials}}) {
      scenario::SweepOptions ranged = sweep_options;
      ranged.trial_range = range;
      parts.push_back(traced_run_sweep(compiled[i], ranged, nullptr));
    }
    const obs::Span span("scenario.merge_trial_ranges");
    const double start = now_seconds();
    const scenario::SweepResult merged = scenario::merge_trial_ranges(parts);
    merge_s += now_seconds() - start;
    ++merges;
    report.op(fingerprint(merged) == reference[i],
              specs[i].name + ": merged trial ranges differ from the pass");
  }
  if (merges > 0) {
    report.set_layer("scenario.merge_trial_ranges_us", merge_s * 1e6 / merges,
                     source);
  }
  report.set_layer("scenario.compile_ms", compile_s * 1e3 / compiled.size(),
                   source);
  report.set_layer("scenario.run_sweep_ms",
                   calls.sum() / static_cast<double>(calls.ms.size()), source);
  layer_metrics_from_results(results, kWorkers, source, report);
  vectorized_share(compiled, source, report);
  layer_metrics_from_entries(specs, results, source, report);
}

void stream_ring(const Options& options, Report& report) {
  const std::string source = "stream-ring";
  const double setup_start = now_seconds();
  double compile_s = 0;
  scenario::ScenarioSpec spec = *scenario::find_preset("ring-mis-implicit");
  const std::uint64_t n = options.smoke() ? 1u << 14 : 1u << 18;
  spec.n_grid = {n};
  // One trial per worker: a lone trial runs inline on one worker and sees
  // that one vCPU's speed, which swings by up to 2x on a shared host.
  spec.trials = kWorkers;
  spec.execution = scenario::Execution::kImplicit;
  spec.base_seed = derive_seed(options.seed, 0x57);
  std::vector<scenario::CompiledScenario> compiled;
  compiled.push_back(traced_compile(spec, compile_s));
  const stats::ThreadPool pool(kWorkers);
  scenario::SweepOptions sweep_options;
  sweep_options.pool = &pool;
  report.setup_s = now_seconds() - setup_start;
  if (options.setup_only()) return;

  std::string reference;
  double work = 0;
  Samples& calls = report.latency["call"];
  auto call = [&](Samples* latency) {
    scenario::SweepResult result =
        traced_run_sweep(compiled[0], sweep_options, latency);
    const std::string print = fingerprint(result);
    if (reference.empty()) reference = print;
    report.op(print == reference, "stream-ring: call differs from the first");
    work += node_trials(result);
    return result;
  };

  scenario::SweepResult plain;
  if (!options.trace()) {
    const double start = now_seconds();
    do {
      call(&calls);
    } while (calls.ms.size() < 2 ||
             (!options.smoke() && another_fits(calls, start, options.seconds)));
    report.metrics["node_trials_per_s"] = work / (calls.sum() / 1e3);
    report.metrics["request_p50_ms"] = calls.percentile(50);
    report.metrics["request_p90_ms"] = calls.percentile(90);
    report.metrics["compute_p50_ms"] = calls.percentile(50);
    report.metrics["peak_rss_mb"] = peak_rss_mb(0);
  } else {
    // A warm-up call pays first-touch allocation; then plain and traced
    // calls in the order plain, traced, traced, plain.
    set_tracing(false);
    call(nullptr);
    Samples traced;
    scenario::SweepResult traced_result;
    for (const bool on : {false, true, true, false}) {
      set_tracing(on);
      (on ? traced_result : plain) = call(on ? &traced : &calls);
    }
    // A one-trial range runs inline on one worker today, so node-range
    // parallelism would show in its time. Merged with the other trials it
    // must reproduce the whole call.
    set_tracing(false);
    Samples one_trial;
    std::vector<scenario::SweepResult> parts;
    for (const local::TrialRange range :
         {local::TrialRange{0, 1}, local::TrialRange{1, spec.trials}}) {
      scenario::SweepOptions ranged = sweep_options;
      ranged.trial_range = range;
      parts.push_back(traced_run_sweep(compiled[0], ranged,
                                       parts.empty() ? &one_trial : nullptr));
    }
    report.op(fingerprint(scenario::merge_trial_ranges(parts)) == reference,
              "stream-ring: merged trial ranges differ from the call");
    report.set_layer("decide.one_trial_ms", one_trial.sum(), source);
    set_tracing(true);
    const double call_ms = calls.sum() / static_cast<double>(calls.ms.size());
    report.set_layer("obs.overhead", traced.sum() / calls.sum() - 1.0, source);
    report.set_layer("decide.stream_us_per_node",
                     call_ms * 1e3 / static_cast<double>(n), source);
    const auto& histograms = traced_result.metrics.histograms();
    const auto collect = histograms.find("ball_collect_seconds");
    if (collect != histograms.end() && collect->second.count() > 0) {
      report.set_layer("decide.ball_collect_ns",
                       collect->second.sum() * 1e9 /
                           static_cast<double>(collect->second.count()),
                       source);
    }
  }

  // Outside the timed part: implicit and materialized execution of the
  // same spec at a reduced n must agree bit for bit.
  scenario::ScenarioSpec small = spec;
  small.n_grid = {options.smoke() ? 1u << 12 : 1u << 16};
  std::string prints[2];
  const scenario::Execution modes[2] = {scenario::Execution::kImplicit,
                                        scenario::Execution::kMaterialized};
  double check_compile_s = 0;
  for (int i = 0; i < 2; ++i) {
    small.execution = modes[i];
    prints[i] = fingerprint(traced_run_sweep(
        traced_compile(small, check_compile_s), sweep_options, nullptr));
  }
  report.op(prints[0] == prints[1],
            "stream-ring: implicit and materialized executions differ");

  if (options.trace()) {
    report.set_layer("scenario.compile_ms", compile_s * 1e3, source);
    report.set_layer("scenario.run_sweep_ms",
                     calls.sum() / static_cast<double>(calls.ms.size()), source);
    layer_metrics_from_results({plain}, kWorkers, source, report);
    vectorized_share(compiled, source, report);
    layer_metrics_from_entries({spec}, {plain}, source, report);
  }
}

}  // namespace perfbench
