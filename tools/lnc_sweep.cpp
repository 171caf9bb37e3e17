// lnc_sweep — the declarative experiment driver over the scenario
// registries (src/scenario). Any registered topology x language x
// construction x decider combination runs from flags or a JSON spec; trial
// ranges shard across processes and merge bit-identically.
//
//   lnc_sweep --list
//       Catalogue: registered components (with parameter schemas) and the
//       preset scenarios.
//   lnc_sweep SPEC [overrides] [options]
//       Run one spec: a preset (--scenario NAME), a spec file (--spec
//       FILE.json, see scenarios/*.json), or an ad-hoc scenario
//       (--topology T --language L --construction C [--decider D]).
//   lnc_sweep --all [overrides] [options]
//       Run every preset (CI trajectory mode).
//   lnc_sweep --merge SHARD.json...
//       Merge result files, in any order, into the full estimate: each
//       file records its trial range, whether --shard or --trial-range
//       produced it, and the ranges must partition [0, trials).
//
// SPEC and the overrides (--param k=v, --n A,B,C, --trials N, --seed S,
// --workload, --statistic, --success, --mode, --backend, --execution,
// --fault, --fault-param) are scenario::SpecFlags, the flag table
// lnc_launch and lnc_serve --query share. Options:
//   --shard i/k      run only trial slice i of k (emits a mergeable tally)
//   --threads N      worker threads (0 = hardware concurrency; default 1)
//   --out FILE       also write the result as JSON (shard or complete)
//   --trace FILE     write a Chrome trace-event JSON span profile
//   --progress       live heartbeat lines (throughput / ETA) on stderr
#include <cmath>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "scenario/presets.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scenario/spec_flags.h"
#include "scenario/sweep.h"
#include "serve/service.h"
#include "stats/threadpool.h"
#include "util/build_info.h"
#include "util/string_util.h"

namespace {

using namespace lnc;

int usage(std::ostream& os, int code) {
  os << "usage: lnc_sweep --list\n"
        "       lnc_sweep SPEC [overrides] [options]\n"
        "       lnc_sweep --all [overrides] [options]\n"
        "       lnc_sweep --merge SHARD.json... [--telemetry] [--out FILE]\n"
     << scenario::SpecFlags::usage()
     << "options: --shard i/k | --threads N | --out FILE | --telemetry\n"
        "         --trial-range B:E | --cache DIR | --trace FILE\n"
        "         --progress | --help | --version\n"
        "value/counter workloads measure a registered statistic of the\n"
        "construction's output (mean/stddev via exact sums, or exact\n"
        "integer totals) instead of a success probability; sharded value\n"
        "runs --merge back to the unsharded mean bit for bit.\n"
        "--telemetry adds communication-volume columns (msgs/words/rounds/\n"
        "balls; deterministic across thread counts and shardings) plus a\n"
        "timing line (wall time, arena peak; machine-dependent).\n"
        "--backend picks how trials execute (auto tunes per grid point;\n"
        "all backends produce bit-identical tallies, so forcing one is a\n"
        "performance choice, never a results choice).\n"
        "--execution picks the graph representation: materialized builds\n"
        "the CSR graph, implicit synthesizes neighborhoods on demand\n"
        "(ball-bounded memory — rings at n = 10^8 and beyond), auto\n"
        "materializes small grids and goes implicit past the cap. Both\n"
        "paths are bit-identical and share one cache key.\n"
        "--cache DIR reads/writes the content-addressed result store\n"
        "(src/serve): a repeated query is answered from cache, a raised\n"
        "--trials runs only the missing trial range and merges exactly.\n"
        "--trial-range B:E runs only trials [B, E) — the slice form of\n"
        "--shard, used by cache top-ups and range-partitioned fleets.\n"
        "--merge takes --shard and --trial-range files in any order.\n"
        "--trace FILE records hierarchical spans (sweep/row/batch/\n"
        "node-range) as Chrome trace-event JSON — open in Perfetto or\n"
        "chrome://tracing — and adds a `metrics` block (latency\n"
        "histograms) to --out JSON. --progress prints rate-limited\n"
        "heartbeats (trials or nodes done, throughput, ETA) to stderr.\n"
        "Both are timing-only: results are bit-identical with or without\n"
        "them (CI's observability gate enforces this).\n"
        "--fault picks a fault model from the faults registry (see --list):\n"
        "lossy links (drop), crash-stop nodes (crash), per-round edge\n"
        "churn (churn). Faulty runs draw every fault from a dedicated\n"
        "per-trial coin stream, so they stay bit-identical across thread\n"
        "counts, shards, and trial ranges like fault-free runs do.\n"
        "build identity: " << lnc::util::build_identity() << "\n";
  return code;
}

void print_schema(const scenario::ParamSchema& schema) {
  for (const scenario::ParamSpec& spec : schema) {
    std::cout << "      " << spec.name << " = " << spec.default_value;
    if (std::isfinite(spec.min_value) || std::isfinite(spec.max_value)) {
      std::cout << " in [" << spec.min_value << ", " << spec.max_value
                << "]";
    }
    std::cout << "  (" << spec.doc << ")\n";
  }
}

void list_catalogue() {
  std::cout << "topologies ([implicit] = giga-scale on-demand capable):\n";
  for (const auto* entry : scenario::topologies().all()) {
    std::cout << "  " << entry->name
              << (entry->build_implicit ? " [implicit]" : "") << " — "
              << entry->doc << "\n";
    print_schema(entry->schema);
  }
  std::cout << "\nlanguages:\n";
  for (const auto* entry : scenario::languages().all()) {
    std::cout << "  " << entry->name << " — " << entry->doc << "\n";
    print_schema(entry->schema);
  }
  std::cout << "\nconstructions:\n";
  for (const auto* entry : scenario::constructions().all()) {
    std::cout << "  " << entry->name << " — " << entry->doc << "\n";
    print_schema(entry->schema);
  }
  std::cout << "\ndeciders:\n";
  for (const auto* entry : scenario::deciders().all()) {
    std::cout << "  " << entry->name << " — " << entry->doc << "\n";
    print_schema(entry->schema);
  }
  std::cout << "\nstatistics (value/counter workloads):\n";
  for (const auto* entry : scenario::statistics().all()) {
    std::cout << "  " << entry->name
              << (entry->integer_valued ? "" : " (value-only)") << " — "
              << entry->doc << "\n";
  }
  std::cout << "\nfaults (--fault / --fault-param):\n";
  for (const auto* entry : scenario::faults().all()) {
    std::cout << "  " << entry->name << " — " << entry->doc << "\n";
    print_schema(entry->schema);
  }
  std::cout << "\nscenarios:\n";
  for (const scenario::ScenarioSpec& spec : scenario::preset_scenarios()) {
    std::cout << "  " << spec.name << " — " << spec.topology << " / "
              << spec.language << " / " << spec.construction << " / "
              << spec.decider;
    if (spec.workload != local::WorkloadKind::kSuccess) {
      std::cout << " [" << local::to_string(spec.workload) << ":"
                << spec.statistic << "]";
    }
    std::cout << "\n      " << spec.doc << "\n";
  }
}

struct Options {
  bool list = false;
  bool all = false;
  bool help = false;
  bool version = false;
  std::vector<std::string> merge_files;
  scenario::SpecFlags spec;

  /// --shard i/k; each spec runs it as shard_range(spec.trials, i, k).
  unsigned shard = 0;
  unsigned shard_count = 1;
  std::optional<local::TrialRange> trial_range;
  std::optional<std::string> cache_dir;
  unsigned threads = 1;
  bool telemetry = false;
  std::optional<std::string> out_file;
  std::optional<std::string> trace_file;
  bool progress = false;
};

bool parse_args(int argc, char** argv, Options& options, std::string& error) {
  auto next_value = [&](int& i, const std::string& flag) -> const char* {
    if (i + 1 >= argc) {
      error = flag + " needs a value";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (options.spec.offer(argc, argv, i, error)) {
      if (!error.empty()) return false;
    } else if (arg == "--list") {
      options.list = true;
    } else if (arg == "--all") {
      options.all = true;
    } else if (arg == "--merge") {
      while (i + 1 < argc && argv[i + 1][0] != '-') {
        options.merge_files.emplace_back(argv[++i]);
      }
      if (options.merge_files.empty()) {
        error = "--merge needs at least one shard file";
        return false;
      }
    } else if (arg == "--shard") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      const std::string text = value;
      const std::size_t slash = text.find('/');
      if (slash == std::string::npos) {
        error = "--shard expects i/k, got '" + text + "'";
        return false;
      }
      // Strict parses: std::stoul would wrap "-1" to ULONG_MAX instead
      // of rejecting it.
      const std::optional<std::uint64_t> index =
          util::parse_uint(text.substr(0, slash));
      const std::optional<std::uint64_t> count =
          util::parse_uint(text.substr(slash + 1));
      if (!index || !count || *index > 1000000 || *count > 1000000) {
        error = "--shard expects non-negative integers i/k, got '" + text +
                "'";
        return false;
      }
      options.shard = static_cast<unsigned>(*index);
      options.shard_count = static_cast<unsigned>(*count);
      // Diagnose precisely — the launch supervisor keys off this exit
      // code, and "out of range" alone buries which bound was violated.
      if (options.shard_count == 0) {
        error = "--shard " + text + " is invalid: the shard count k must "
                "be at least 1";
        return false;
      }
      if (options.shard >= options.shard_count) {
        error = "--shard " + text + " is invalid: the shard index i must "
                "satisfy i < k (indices are 0-based, so the last shard "
                "of k=" + std::to_string(options.shard_count) + " is " +
                std::to_string(options.shard_count - 1) + ")";
        return false;
      }
    } else if (arg == "--trial-range") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      const std::string text = value;
      const std::size_t colon = text.find(':');
      if (colon == std::string::npos) {
        error = "--trial-range expects B:E, got '" + text + "'";
        return false;
      }
      const std::optional<std::uint64_t> begin =
          util::parse_uint(text.substr(0, colon));
      const std::optional<std::uint64_t> end =
          util::parse_uint(text.substr(colon + 1));
      if (!begin || !end) {
        error = "--trial-range expects non-negative integers B:E, got '" +
                text + "'";
        return false;
      }
      if (*begin >= *end) {
        error = "--trial-range " + text +
                " is empty: B must be strictly below E";
        return false;
      }
      options.trial_range = local::TrialRange{*begin, *end};
    } else if (arg == "--cache") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      options.cache_dir = value;
    } else if (arg == "--threads") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      const std::optional<std::uint64_t> threads = util::parse_uint(value);
      if (!threads || *threads > 4096) {
        error = std::string("--threads expects a non-negative integer "
                            "(<= 4096), got '") + value + "'";
        return false;
      }
      options.threads = static_cast<unsigned>(*threads);
    } else if (arg == "--telemetry") {
      options.telemetry = true;
    } else if (arg == "--out") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      options.out_file = value;
    } else if (arg == "--trace") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      options.trace_file = value;
    } else if (arg == "--progress") {
      options.progress = true;
    } else if (arg == "--help") {
      options.help = true;
    } else if (arg == "--version") {
      options.version = true;
    } else {
      error = "unknown flag '" + arg + "'";
      return false;
    }
  }
  if (options.trial_range && options.shard_count > 1) {
    error = "--trial-range and --shard are mutually exclusive (a range IS "
            "an explicit shard)";
    return false;
  }
  if (options.cache_dir &&
      (options.shard_count > 1 || options.trial_range ||
       !options.merge_files.empty())) {
    error = "--cache serves complete results only — it cannot be combined "
            "with --shard, --trial-range, or --merge";
    return false;
  }
  return true;
}

/// The --out path for one scenario: unchanged for a single run, suffixed
/// with the scenario name for multi-scenario runs (--all), so later runs
/// do not overwrite earlier ones.
std::string out_path_for(const std::string& out_file, const std::string& name,
                         bool multiple) {
  if (!multiple) return out_file;
  const std::size_t dot = out_file.rfind('.');
  if (dot == std::string::npos || out_file.find('/', dot) != std::string::npos) {
    return out_file + "-" + name;
  }
  return out_file.substr(0, dot) + "-" + name + out_file.substr(dot);
}

/// Writes the result JSON to `path` atomically (scenario::write_json_file)
/// and reports failures on stderr. A failed --out MUST exit nonzero with
/// no file left at `path`: the launch supervisor (tools/lnc_launch.cpp)
/// keys off the exit code, and a partial file would poison the merge.
bool write_result_file(const std::string& path,
                       const scenario::SweepResult& result) {
  const std::string error = scenario::write_json_file(path, result);
  if (!error.empty()) {
    std::cerr << error << "\n";
    return false;
  }
  return true;
}

/// Two summary lines per result: the deterministic counters on one (CI
/// greps and diffs this line across thread counts and shardings), the
/// machine-dependent timing on the other.
void print_telemetry_summary(std::ostream& os,
                             const scenario::SweepResult& result) {
  const local::Telemetry total = scenario::result_telemetry(result);
  os << "telemetry[" << result.scenario
     << "]: messages=" << total.messages_sent
     << " words=" << total.words_sent << " rounds=" << total.rounds_executed
     << " ball_expansions=" << total.ball_expansions
     << " messages_dropped=" << total.messages_dropped
     << " nodes_crashed=" << total.nodes_crashed
     << " edges_churned=" << total.edges_churned << "\n";
  // cpu-trial-secs is the SUM of per-trial wall time across workers
  // (telemetry.wall_seconds) — on an 8-thread run it reads ~8x the true
  // elapsed time; wall-secs is the real elapsed wall-clock summed over
  // the rows' single per-grid-point measurements.
  double elapsed = 0.0;
  for (const scenario::SweepRow& row : result.rows) {
    elapsed += row.elapsed_seconds;
  }
  std::ostringstream timing;
  timing.precision(3);
  timing << std::fixed << "timing[" << result.scenario
         << "]: cpu-trial-secs=" << total.wall_seconds
         << " wall-secs=" << elapsed
         << " arena_peak_bytes=" << total.arena_peak_bytes;
  os << timing.str() << "\n\n";
}

/// Owns the global node-granularity heartbeat for one run and guarantees
/// uninstall-before-destroy on every exit path.
struct NodeProgressGuard {
  std::optional<obs::Progress> heartbeat;
  ~NodeProgressGuard() {
    if (heartbeat) {
      obs::install_node_progress(nullptr);
      heartbeat->finish();
    }
  }
};

int run_one(const scenario::ScenarioSpec& spec, const Options& options,
            bool multiple_specs, const stats::ThreadPool* pool,
            serve::SweepService* service, std::ostream& os) {
  const std::string error = scenario::validate(spec);
  if (!error.empty()) {
    std::cerr << "invalid scenario '" << spec.name << "': " << error << "\n";
    return 1;
  }
  // Node-granularity heartbeat (implicit streaming loops tick it through
  // the global channel); trial-granularity progress is wired through
  // SweepOptions below. Both print to stderr — stdout owns the tables.
  NodeProgressGuard node_progress;
  if (options.progress) {
    node_progress.heartbeat.emplace("nodes:" + spec.name, 0, "nodes",
                                    &std::cerr);
    obs::install_node_progress(&*node_progress.heartbeat);
  }
  if (options.trial_range && options.trial_range->end > spec.trials) {
    std::cerr << "--trial-range [" << options.trial_range->begin << ", "
              << options.trial_range->end << ") exceeds the spec's "
              << spec.trials << " trials\n";
    return 1;
  }
  scenario::SweepResult result;
  if (service != nullptr) {
    // Read-through/write-back against the content-addressed store: a
    // repeated run is a hit, a raised --trials computes only the delta.
    serve::QueryOutcome outcome;
    try {
      outcome = service->query(spec);
    } catch (const std::exception& ex) {
      std::cerr << ex.what() << "\n";
      return 1;
    }
    for (const std::string& note : outcome.notes) {
      std::cerr << "note: " << note << "\n";
    }
    os << serve::cache_line(spec.name, outcome.outcome,
                            outcome.trials_reused, outcome.trials_computed,
                            outcome.key)
       << "\n";
    result = std::move(outcome.result);
  } else {
    const scenario::CompiledScenario compiled = scenario::compile(spec);
    scenario::SweepOptions sweep_options;
    sweep_options.trial_range = options.trial_range;
    if (options.shard_count > 1) {
      sweep_options.trial_range =
          local::shard_range(spec.trials, options.shard, options.shard_count);
    }
    sweep_options.pool = pool;
    std::optional<obs::Progress> trial_progress;
    if (options.progress) {
      const local::TrialRange range = sweep_options.trial_range.value_or(
          local::TrialRange{0, spec.trials});
      trial_progress.emplace(
          "sweep:" + spec.name,
          range.count() * compiled.points().size(), "trials", &std::cerr);
      sweep_options.progress = &*trial_progress;
    }
    result = scenario::run_sweep(compiled, sweep_options);
    if (trial_progress) trial_progress->finish();
  }

  os << "=== " << spec.name << " — " << spec.topology << " / "
     << spec.language << " / " << spec.construction << " / " << spec.decider;
  if (spec.workload == local::WorkloadKind::kSuccess) {
    os << " (success = " << (spec.success_on_accept ? "accept" : "reject");
  } else {
    os << " (" << local::to_string(spec.workload) << " of "
       << spec.statistic;
  }
  os << ", seed = " << spec.base_seed;
  if (options.shard_count > 1) {
    os << ", shard " << options.shard << "/" << options.shard_count;
  }
  if (options.trial_range) {
    os << ", trials [" << options.trial_range->begin << ", "
       << options.trial_range->end << ")";
  }
  os << ") ===\n";
  if (!spec.doc.empty()) os << spec.doc << "\n";
  scenario::to_table(result, options.telemetry).print(os);
  for (const std::string& line : scenario::summary_lines(result)) {
    os << line << "\n";
  }
  os << "\n";
  if (options.telemetry) print_telemetry_summary(os, result);

  if (options.out_file) {
    const std::string path =
        out_path_for(*options.out_file, spec.name, multiple_specs);
    if (!write_result_file(path, result)) return 1;
  }
  return 0;
}

int merge_mode(const Options& options) {
  scenario::SweepResult merged;
  std::vector<std::string> warnings;
  try {
    // The same gather step the distributed launcher runs
    // (scenario::merge_sweep_files — src/orchestrate reuses it).
    merged = scenario::merge_sweep_files(options.merge_files, &warnings);
  } catch (const std::exception& ex) {
    for (const std::string& warning : warnings) {
      std::cerr << "warning: " << warning << "\n";
    }
    std::cerr << ex.what() << "\n";
    return 1;
  }
  for (const std::string& warning : warnings) {
    std::cerr << "warning: " << warning << "\n";
  }
  std::cout << "=== " << merged.scenario << " (merged from "
            << options.merge_files.size() << " shard files) ===\n";
  scenario::to_table(merged, options.telemetry).print(std::cout);
  for (const std::string& line : scenario::summary_lines(merged)) {
    std::cout << line << "\n";
  }
  if (options.telemetry) {
    std::cout << "\n";
    print_telemetry_summary(std::cout, merged);
  }
  if (options.out_file) {
    if (!write_result_file(*options.out_file, merged)) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string error;
  if (!parse_args(argc, argv, options, error)) {
    std::cerr << error << "\n";
    return usage(std::cerr, 2);
  }
  if (options.help) return usage(std::cout, 0);
  if (options.version) {
    std::cout << "lnc_sweep (" << lnc::util::build_identity() << ")\n";
    return 0;
  }
  if (options.list) {
    list_catalogue();
    return 0;
  }
  const scenario::SpecFlags& flags = options.spec;
  if (!options.merge_files.empty()) {
    if (flags.named() > 0 || flags.has_overrides()) {
      std::cerr << "--merge takes no spec flags: the shard files carry "
                   "the spec\n";
      return usage(std::cerr, 2);
    }
    return merge_mode(options);
  }

  std::vector<scenario::ScenarioSpec> specs;
  if (options.all) {
    if (flags.named() > 0) {
      std::cerr << "--all runs every preset; it names no other spec\n";
      return usage(std::cerr, 2);
    }
    specs = scenario::preset_scenarios();
    for (scenario::ScenarioSpec& spec : specs) flags.apply(spec);
  } else {
    try {
      specs.push_back(flags.resolve());
    } catch (const scenario::SpecFlags::UsageError& ex) {
      std::cerr << ex.what() << "\n";
      return usage(std::cerr, 2);
    } catch (const std::exception& ex) {
      std::cerr << ex.what() << "\n";
      return 1;
    }
  }

  if (options.trace_file) {
    // --trace turns on both pillars that cost anything: span recording
    // and the metrics registries (which then land as the result JSON's
    // `metrics` block). Results stay bit-identical either way — the CI
    // observability gate holds lnc_sweep to that.
    obs::TraceRecorder::instance().enable();
    obs::set_metrics_enabled(true);
  }

  std::optional<stats::ThreadPool> pool;
  if (options.threads != 1) pool.emplace(options.threads);

  std::optional<serve::SweepService> service;
  if (options.cache_dir) {
    try {
      service.emplace(*options.cache_dir,
                      serve::ServiceOptions{options.threads});
    } catch (const std::exception& ex) {
      std::cerr << ex.what() << "\n";
      return 1;
    }
  }

  int rc = 0;
  for (const scenario::ScenarioSpec& spec : specs) {
    rc |= run_one(spec, options, specs.size() > 1, pool ? &*pool : nullptr,
                  service ? &*service : nullptr, std::cout);
  }
  // Workers are idle by now (the pool outlives every sweep), so the
  // buffers are quiescent and the write is race-free.
  if (options.trace_file &&
      !obs::TraceRecorder::instance().write_file_and_report(
          *options.trace_file, std::cerr)) {
    rc |= 1;
  }
  return rc;
}
