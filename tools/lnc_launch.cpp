// lnc_launch — the distributed sweep orchestrator (src/orchestrate).
//
// Turns any scenario into a fleet of `lnc_sweep --trial-range B:E` jobs
// (at most one shard per trial to run), runs them over a pluggable
// transport with per-job timeouts and retry-with-backoff, records every
// state transition in a persistent run manifest, and gathers the shard
// results into the EXACT unsharded SweepResult (estimates, exact-sum
// value accumulators, counter slots, and deterministic telemetry
// counters are bit-identical — the same merge contract `lnc_sweep
// --merge` obeys).
//
//   lnc_launch SPEC --shards K [overrides] [options]
//       Plan a fresh run directory and execute it. SPEC and the overrides
//       are scenario::SpecFlags, the flag table lnc_sweep and
//       lnc_serve --query share: --scenario NAME, --spec FILE.json, or
//       ad-hoc --topology/--language/--construction[/--decider], then
//       --param k=v, --n, --trials, --seed, ... --fault-param.
//   lnc_launch --resume DIR [options]
//       Re-run only the missing/failed shards of an interrupted run,
//       then merge.
//
// Options:
//   --run-dir DIR        run directory (default lnc-run-<scenario>)
//   --transport local|ssh   (default local: fork/exec lnc_sweep)
//   --ssh-template TMPL  ssh/srun command template; {cmd} expands to the
//                        lnc_sweep invocation (bare shell-safe words —
//                        pick run-dir/binary paths without spaces),
//                        {shard} to the shard index, e.g.
//                        'ssh worker{shard} {cmd}'. The run directory
//                        must be on a filesystem the remote command can
//                        reach.
//   --remote-sweep CMD   lnc_sweep spelling on the executor (ssh only)
//   --sweep-bin PATH     local lnc_sweep binary (default: next to this)
//   --sweep-threads N    lnc_sweep --threads per shard (default 1)
//   --jobs J             concurrent shard jobs (default min(K, cores))
//   --timeout SEC        per-attempt deadline; stragglers are killed and
//                        re-dispatched (default: none)
//   --retries N          attempts per shard per run (default 3)
//   --backoff-ms MS      first retry delay, doubling per retry (def 100)
//   --out FILE           also write the merged result JSON
//   --trace FILE         write a Chrome trace-event JSON of the fleet:
//                        one "shard-attempt" span per dispatch attempt
//                        (tagged shard/attempt/outcome), a "merge" span,
//                        and the enclosing "fleet" span. Load in
//                        Perfetto (ui.perfetto.dev). Timing-only: the
//                        merged result is bit-identical with or without.
//   --progress           live fleet heartbeat on stderr (shards done,
//                        throughput, ETA) between the per-transition
//                        launch[...] lines
//   --cache DIR          content-addressed result store (serve/), with
//                        the decision lnc_sweep --cache and lnc_serve
//                        make (serve::plan_query): a cached result at >=
//                        the requested trials is served without launching
//                        any shard; a cached PREFIX turns the fleet into
//                        a top-up run that computes only the missing
//                        trial range and merges bit-identically; a miss
//                        is a top-up from nothing. Merged results are
//                        written back to the store (also on --resume, by
//                        re-reading the frozen spec), which keeps an
//                        entry covering at least as many trials.
//   --inject-fail S[:T]  TEST HOOK: fail shard S's first T attempts
//                        (default 1) before reaching the transport — CI
//                        exercises the retry path with this.
// --resume takes no spec flag: the spec is frozen into the run directory.
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "orchestrate/launch.h"
#include "orchestrate/manifest.h"
#include "orchestrate/supervisor.h"
#include "orchestrate/transport.h"
#include "scenario/scenario.h"
#include "scenario/spec_flags.h"
#include "scenario/spec_json.h"
#include "scenario/sweep.h"
#include "serve/cache_key.h"
#include "serve/result_store.h"
#include "serve/service.h"
#include "util/build_info.h"
#include "util/file_util.h"
#include "util/string_util.h"

namespace {

using namespace lnc;

int usage(std::ostream& os, int code) {
  os << "usage: lnc_launch SPEC --shards K [overrides] [options]\n"
        "       lnc_launch --resume DIR [options]\n"
     << scenario::SpecFlags::usage()
     << "options: --run-dir DIR | --transport local|ssh\n"
        "         --ssh-template 'ssh worker{shard} {cmd}'\n"
        "         --remote-sweep CMD | --sweep-bin PATH\n"
        "         --sweep-threads N | --jobs J | --timeout SEC\n"
        "         --retries N | --backoff-ms MS | --out FILE\n"
        "         --trace FILE  (Chrome trace of the fleet — shard\n"
        "                        lifecycle + merge spans; Perfetto-ready)\n"
        "         --progress    (live fleet heartbeat on stderr)\n"
        "         --cache DIR   (result store: hit skips the fleet,\n"
        "                        a cached prefix tops up only the missing\n"
        "                        trials; merged results are written back)\n"
        "         --inject-fail SHARD[:TIMES]   (test hook)\n"
        "The merged result is bit-identical to the unsharded lnc_sweep\n"
        "run; failed shards never reach the merge (faulty runs included:\n"
        "fault draws are keyed per trial, never per process).\n"
        "build identity: " << util::build_identity() << "\n";
  return code;
}

struct Options {
  scenario::SpecFlags spec;
  std::optional<std::string> resume_dir;

  unsigned shards = 0;
  std::optional<std::string> run_dir;
  std::string transport = "local";
  std::optional<std::string> ssh_template;
  std::string remote_sweep = "lnc_sweep";
  std::optional<std::string> sweep_bin;
  unsigned sweep_threads = 1;
  orchestrate::SupervisorOptions supervisor;
  std::optional<std::string> out_file;
  std::optional<std::string> trace_file;
  std::optional<std::string> cache_dir;
  std::optional<std::pair<unsigned, unsigned>> inject_fail;  // shard, times
  bool help = false;
  bool version = false;
};

/// Strict flag parses (util::parse_uint / parse_nonnegative_double) —
/// a typo'd `--shards -1` must be a usage error, not a 4-billion-shard
/// manifest, and `--timeout 5m` must not silently become 5 seconds.
unsigned parse_unsigned(const std::string& text, const std::string& flag) {
  const std::optional<std::uint64_t> value = util::parse_uint(text);
  if (!value) {
    throw std::runtime_error(flag + " expects a non-negative integer, "
                             "got '" + text + "'");
  }
  if (*value > 1000000) {
    throw std::runtime_error(flag + " value " + text +
                             " is implausibly large");
  }
  return static_cast<unsigned>(*value);
}

double parse_seconds(const std::string& text, const std::string& flag) {
  const std::optional<double> value = util::parse_nonnegative_double(text);
  if (!value) {
    throw std::runtime_error(flag + " expects a non-negative number, "
                             "got '" + text + "'");
  }
  return *value;
}

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
    } else if (arg == "--resume") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      options.resume_dir = value;
    } else if (arg == "--shards") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      options.shards = parse_unsigned(value, arg);
      if (options.shards == 0) {
        error = "--shards needs a positive shard count";
        return false;
      }
    } else if (arg == "--run-dir") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      options.run_dir = value;
    } else if (arg == "--transport") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      options.transport = value;
      if (options.transport != "local" && options.transport != "ssh") {
        error = "--transport expects local|ssh";
        return false;
      }
    } else if (arg == "--ssh-template") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      options.ssh_template = value;
    } else if (arg == "--remote-sweep") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      options.remote_sweep = value;
    } else if (arg == "--sweep-bin") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      options.sweep_bin = value;
    } else if (arg == "--sweep-threads") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      options.sweep_threads = parse_unsigned(value, arg);
    } else if (arg == "--jobs") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      options.supervisor.max_parallel = parse_unsigned(value, arg);
    } else if (arg == "--timeout") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      options.supervisor.timeout_seconds = parse_seconds(value, arg);
    } else if (arg == "--retries") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      options.supervisor.max_attempts = parse_unsigned(value, arg);
      if (options.supervisor.max_attempts == 0) {
        error = "--retries needs at least one attempt";
        return false;
      }
    } else if (arg == "--backoff-ms") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      options.supervisor.backoff_ms = parse_seconds(value, arg);
    } else if (arg == "--out") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      options.out_file = value;
    } else if (arg == "--trace") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      options.trace_file = value;
    } else if (arg == "--progress") {
      options.supervisor.progress = true;
    } else if (arg == "--cache") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      options.cache_dir = value;
    } else if (arg == "--help") {
      options.help = true;
    } else if (arg == "--version") {
      options.version = true;
    } else if (arg == "--inject-fail") {
      if ((value = next_value(i, arg)) == nullptr) return false;
      const std::string text = value;
      const std::size_t colon = text.find(':');
      const unsigned shard = parse_unsigned(text.substr(0, colon), arg);
      const unsigned times =
          colon == std::string::npos
              ? 1
              : parse_unsigned(text.substr(colon + 1), arg);
      options.inject_fail = {shard, times};
    } else {
      error = "unknown flag '" + arg + "'";
      return false;
    }
  }
  return true;
}

/// The lnc_sweep next to this binary — shards run the same build by
/// default, which is what the bit-identity guarantee assumes.
std::string default_sweep_binary(const char* argv0) {
  std::error_code ec;
  std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) self = argv0;
  const std::filesystem::path dir = self.parent_path();
  if (dir.empty()) return "lnc_sweep";  // bare argv0: rely on PATH
  return (dir / "lnc_sweep").string();
}

std::unique_ptr<orchestrate::Transport> make_transport(
    const Options& options, const char* argv0, std::string& error) {
  if (options.transport == "ssh") {
    if (!options.ssh_template) {
      error = "--transport ssh needs --ssh-template";
      return nullptr;
    }
    return std::make_unique<orchestrate::SshTransport>(
        *options.ssh_template, options.remote_sweep);
  }
  const std::string binary = options.sweep_bin
                                 ? *options.sweep_bin
                                 : default_sweep_binary(argv0);
  return std::make_unique<orchestrate::LocalProcessTransport>(binary);
}

int report_outcome(const orchestrate::RunManifest& manifest,
                   const orchestrate::LaunchOutcome& outcome,
                   const Options& options) {
  for (const std::string& warning : outcome.warnings) {
    std::cerr << "warning: " << warning << "\n";
  }
  if (!outcome.ok) {
    std::cerr << "launch failed: " << outcome.error << "\n";
    for (const unsigned shard : outcome.failed_shards) {
      const orchestrate::ShardRecord& record = manifest.shards[shard];
      std::cerr << "  shard " << shard << ": " << to_string(record.state)
                << " after " << record.attempts << " attempt(s)";
      if (!record.error.empty()) std::cerr << " — " << record.error;
      std::cerr << " (log: " << manifest.log_path(shard) << ")\n";
    }
    std::cerr << "resume with: lnc_launch --resume " << manifest.run_dir
              << "\n";
    return 1;
  }

  std::cout << "=== " << outcome.merged.scenario << " (merged from "
            << manifest.shard_count << " shards, run dir "
            << manifest.run_dir << ") ===\n";
  scenario::to_table(outcome.merged).print(std::cout);
  for (const std::string& line : scenario::summary_lines(outcome.merged)) {
    std::cout << line << "\n";
  }
  if (options.out_file) {
    // Same contract as lnc_sweep --out: atomic, no silent partial files.
    const std::string write_error =
        scenario::write_json_file(*options.out_file, outcome.merged);
    if (!write_error.empty()) {
      std::cerr << write_error << "\n";
      return 1;
    }
  }
  return 0;
}

/// Serves a cache hit: same report shape as a merged run, but no fleet
/// ever launches and no run directory is created.
int report_cached(const serve::QueryPlan& plan, const Options& options) {
  const scenario::SweepResult& result = *plan.baseline;
  std::cout << "=== " << result.scenario << " (served from cache, "
            << plan.trials_reused << " trials, key "
            << plan.key.substr(0, 16) << ") ===\n";
  scenario::to_table(result).print(std::cout);
  for (const std::string& line : scenario::summary_lines(result)) {
    std::cout << line << "\n";
  }
  if (options.out_file) {
    const std::string write_error =
        scenario::write_json_file(*options.out_file, result);
    if (!write_error.empty()) {
      std::cerr << write_error << "\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string error;
  try {
    if (!parse_args(argc, argv, options, error)) {
      std::cerr << error << "\n";
      return usage(std::cerr, 2);
    }
  } catch (const std::exception& ex) {
    std::cerr << "bad flag value: " << ex.what() << "\n";
    return usage(std::cerr, 2);
  }
  if (options.help) return usage(std::cout, 0);
  if (options.version) {
    std::cout << "lnc_launch (" << util::build_identity() << ")\n";
    return 0;
  }

  std::unique_ptr<orchestrate::Transport> transport =
      make_transport(options, argv[0], error);
  if (transport == nullptr) {
    std::cerr << error << "\n";
    return usage(std::cerr, 2);
  }
  orchestrate::Transport* effective = transport.get();
  std::unique_ptr<orchestrate::FaultInjectingTransport> injector;
  if (options.inject_fail) {
    injector = std::make_unique<orchestrate::FaultInjectingTransport>(
        *effective, options.inject_fail->first,
        options.inject_fail->second);
    effective = injector.get();
  }

  orchestrate::SupervisorOptions supervisor = options.supervisor;
  supervisor.status = &std::cerr;
  // Tracing captures the fleet's control plane (dispatch / retry / kill /
  // merge); the per-trial work lives in the shard processes, which trace
  // separately via lnc_sweep --trace. Timing-only either way.
  if (options.trace_file) obs::TraceRecorder::instance().enable();

  try {
    std::optional<serve::ResultStore> store;
    if (options.cache_dir) store.emplace(*options.cache_dir);
    // The spec whose key the merged result is stored under; for resumes
    // it is re-read from the run directory's frozen spec.json.
    std::optional<scenario::ScenarioSpec> cache_spec;

    orchestrate::RunManifest manifest;
    if (options.resume_dir) {
      // The spec is frozen in the run directory; accepting spec flags
      // here would silently run different parameters than reported.
      if (options.spec.named() > 0 || options.spec.has_overrides() ||
          options.shards != 0 || options.run_dir) {
        std::cerr << "--resume re-runs the FROZEN spec in its existing "
                     "directory; --run-dir, --shards and spec flags "
                     "(--scenario/--spec/--param/--n/--trials/...) cannot "
                     "change it — plan a new run directory instead\n";
        return usage(std::cerr, 2);
      }
      manifest = orchestrate::load_manifest(
          std::filesystem::absolute(*options.resume_dir).string());
      std::cerr << "resuming '" << manifest.scenario << "' in "
                << manifest.run_dir << " (" << manifest.shard_count
                << " shards)\n";
      if (store) {
        std::string text;
        const std::string read_error =
            util::read_file(manifest.spec_path(), text);
        if (!read_error.empty()) {
          throw std::runtime_error(
              "--cache write-back needs the frozen spec: " + read_error);
        }
        cache_spec = scenario::spec_from_json(text);
      }
    } else {
      const scenario::ScenarioSpec spec = options.spec.resolve();
      if (options.shards == 0) {
        std::cerr << "--shards is required for a new run\n";
        return usage(std::cerr, 2);
      }
      // Absolute, so the ShardJob paths handed to transports really are
      // absolute as documented — an ssh shard must not resolve a
      // relative run dir against its remote login cwd.
      const std::string run_dir =
          std::filesystem::absolute(
              options.run_dir ? *options.run_dir : "lnc-run-" + spec.name)
              .string();
      if (options.transport == "ssh") {
        // Template transports require shell-safe paths
        // (orchestrate::render_template throws on others) — surface that
        // BEFORE plan_run puts anything on disk.
        orchestrate::ShardJob probe;
        probe.spec_path = run_dir + "/spec.json";
        probe.output_path = run_dir + "/shard-0.json";
        orchestrate::render_template(*options.ssh_template,
                                     options.remote_sweep, probe);
      }
      // Without --cache a run is a miss: every trial, from nothing.
      serve::QueryPlan plan;
      plan.run_spec = spec;
      if (store) {
        plan = serve::plan_query(*store, spec);
        for (const std::string& note : plan.notes) {
          std::cerr << "note: " << note << "\n";
        }
        std::cout << serve::cache_line(spec.name, plan.outcome,
                                       plan.trials_reused,
                                       plan.trials_computed, plan.key)
                  << "\n";
        if (plan.outcome == serve::CacheOutcome::kHit) {
          return report_cached(plan, options);
        }
        cache_spec = plan.run_spec;
      }
      // The fleet computes [trials_reused, trials) of the run spec and
      // merges it after the cached prefix, if any.
      unsigned shards = options.shards;
      const std::uint64_t width = spec.trials - plan.trials_reused;
      if (shards > width) {
        shards = static_cast<unsigned>(width);
        std::cerr << "note: only " << width << " trial(s) to run — using "
                  << shards << " shard(s) instead of " << options.shards
                  << "\n";
      }
      manifest = orchestrate::plan_run(
          plan.run_spec, run_dir, shards,
          plan.baseline ? &*plan.baseline : nullptr);
      std::cerr << "planned " << shards << " shard(s) of '" << spec.name
                << "' (trials [" << manifest.trial_begin << ", "
                << manifest.trial_end << ")) in " << run_dir << "\n";
    }

    orchestrate::LaunchOutcome outcome;
    {
      const obs::Span fleet_span(
          "fleet", obs::span_args("shards", static_cast<std::uint64_t>(
                                                manifest.shard_count)));
      outcome = orchestrate::execute_run(manifest, *effective, supervisor,
                                         options.sweep_threads);
    }
    if (outcome.ok && store && cache_spec) {
      // Write-back failure is a warning, never a run failure: the result
      // itself is already merged and reported.
      const std::string error = store->store(
          {serve::cache_key(*cache_spec), 0, {}, *cache_spec, outcome.merged});
      if (!error.empty()) {
        std::cerr << "warning: cache write-back failed: " << error << "\n";
      }
    }
    int rc = report_outcome(manifest, outcome, options);
    if (options.trace_file &&
        !obs::TraceRecorder::instance().write_file_and_report(
            *options.trace_file, std::cerr)) {
      rc |= 1;
    }
    return rc;
  } catch (const scenario::SpecFlags::UsageError& ex) {
    std::cerr << ex.what() << "\n";
    return usage(std::cerr, 2);
  } catch (const std::exception& ex) {
    std::cerr << ex.what() << "\n";
    return 1;
  }
}
