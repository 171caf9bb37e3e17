#!/usr/bin/env python3
"""The repository's benchmark (BENCHMARK.json names this file).

Usage, from the root of a checkout:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

Builds liblnc, the shipped lnc_serve daemon and the benchmark driver from
the checkout's sources (CMake, Release) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench. The workload then runs in a fresh driver
process. Human-readable lines come first; the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}:

  --trace 0  every end-to-end metric of BENCHMARK.json, measured with
             tracing off. setup_s is the median over the run's own set-up
             and SETUP_REPEATS further set-up-only processes.
  --trace 1  every per-layer metric: the workload run plain and traced,
             the layer probes, one Chrome trace per workload (checked with
             tools/check_trace.py), and calls / total / self time per
             layer read from that trace.

--smoke runs every workload at a tiny size, both modes, with every output
check on; it exits 0 only when every check passes and every metric is
reported. Any failed output check makes "correct" false; a build or
driver error exits non-zero without a result line.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

WORKLOADS = ("preset-sweep", "stream-ring", "serve-curves")
SETUP_REPEATS = 19
DRIVER_TIMEOUT_S = 170

# Library spans (src/) by layer; benchmark spans are "<layer>.<function>".
LIBRARY_SPAN_LAYER = {"sweep": "scenario", "row": "scenario",
                      "batch": "local", "node-range": "decide"}
# Spans each workload's trace must hold (tools/check_trace.py --require).
REQUIRED_SPANS = {
    "preset-sweep": ["scenario.compile", "scenario.run_sweep", "sweep", "row",
                     "batch", "scenario.merge_trial_ranges"],
    "stream-ring": ["scenario.compile", "scenario.run_sweep", "sweep", "row",
                    "node-range"],
    "serve-curves": ["serve.daemon_round_trip", "serve.query", "sweep",
                     "scenario.merge_trial_ranges"],
}
PROBE_SPANS = ["rand.philox_u64_batch", "graph.collect",
               "stats.parallel_for_workers", "stats.exact_sum_add",
               "serve.cache_key", "serve.store", "serve.lookup",
               "scenario.write_json", "scenario.sweep_from_json"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)


def build(root):
    """Configures once, then builds incrementally. Returns the build dir."""
    if not os.path.isfile(os.path.join(root, "src", "scenario", "sweep.h")):
        fail(f"{root} holds no liblnc sources; run from a repository checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed")
    return build_dir


def run_driver(build_dir, workload, seed, seconds, mode, small=False,
               trace_out=None):
    work_dir = os.path.join(build_dir, "work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [os.path.join(build_dir, "perfbench_driver"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--mode", mode,
               "--small", "1" if small else "0", "--work-dir", work_dir,
               "--serve-bin", os.path.join(build_dir, "lnc_serve")]
    if trace_out:
        command += ["--trace-out", trace_out]
    # A session of its own, so a timeout also stops the daemon it started.
    driver = subprocess.Popen(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        stdout, stderr = driver.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.communicate()
        fail(f"{workload} {mode}: driver timed out")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if driver.returncode != 0 or not stdout.strip():
        sys.stderr.write(stderr[-4000:])
        fail(f"{workload} {mode}: driver exited with {driver.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def top_percentile(count):
    """Highest reported percentile with at least 10 samples beyond it."""
    best = None
    for p in (50, 90, 99, 99.9):
        if count * (1 - p / 100) >= 10:
            best = p
    return best


def print_latencies(report):
    for name, lat in sorted(report["latency"].items()):
        top = top_percentile(lat["count"])
        key = {None: None, 50: "p50", 90: "p90", 99: "p99", 99.9: "p999"}[top]
        tail = (f"; highest percentile with >= 10 beyond: p{top} = "
                f"{lat[key]:.4f} ms" if top else
                "; fewer than 20 samples, no percentile has 10 beyond")
        print(f"  latency {name}: n = {lat['count']}, p50 = {lat['p50']:.4f} ms,"
              f" p90 = {lat['p90']:.4f} ms{tail}")


def cpu_ticks():
    """(steal, total) CPU ticks from /proc/stat; zeros where unavailable."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, IndexError, ValueError):
        return 0, 0


def plain_run(build_dir, args):
    steal_before, total_before = cpu_ticks()
    main = run_driver(build_dir, args.workload, args.seed, args.seconds, "run")
    steal_after, total_after = cpu_ticks()
    setups = [main["setup_s"]]
    attempted, failed = main["attempted"], main["failed"]
    failures = list(main["failures"])
    for i in range(SETUP_REPEATS):
        extra = run_driver(build_dir, args.workload, args.seed + i + 1, 0, "setup")
        setups.append(extra["setup_s"])
        attempted += extra["attempted"]
        failed += extra["failed"]
        failures += extra["failures"]
    values = dict(main["metrics"])
    values["setup_s"] = statistics.median(setups)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s")
    print_latencies(main)
    print("  setup_s samples: " + ", ".join(f"{s:.6f}" for s in setups))
    if total_after > total_before:
        # Time the hypervisor gave to other guests: on a shared host the
        # timings above move with it.
        share = (steal_after - steal_before) / (total_after - total_before)
        print(f"  steal during the run: {100 * share:.1f}% of CPU time")
    return values, attempted, failed, failures


def layer_table(trace_path):
    """Calls, total and self time per layer; self = span time minus the
    part of it that child spans on the same thread cover."""
    with open(trace_path) as handle:
        events = json.load(handle)["traceEvents"]
    lanes = {}
    for event in events:
        lanes.setdefault((event["pid"], event["tid"]), []).append(event)
    rows = {}
    for lane_events in lanes.values():
        lane_events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [event, child time]
        def close(entry):
            event, children = entry
            name = event["name"]
            layer = LIBRARY_SPAN_LAYER.get(name, name.split(".")[0])
            row = rows.setdefault(layer, [0, 0, 0])
            row[0] += 1
            row[1] += event["dur"]
            row[2] += event["dur"] - children
            if stack:
                stack[-1][1] += event["dur"]
        for event in lane_events:
            while stack and event["ts"] >= stack[-1][0]["ts"] + stack[-1][0]["dur"]:
                close(stack.pop())
            stack.append([event, 0])
        while stack:
            close(stack.pop())
    return rows


def traced_run(build_dir, root, args):
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, f"{args.workload}.json")
    report = run_driver(build_dir, args.workload, args.seed, args.seconds,
                        "trace", small=args.small, trace_out=trace_path)
    attempted, failed = report["attempted"], report["failed"]
    failures = list(report["failures"])
    check = [sys.executable, os.path.join(root, "tools", "check_trace.py")]
    for name in REQUIRED_SPANS[args.workload] + PROBE_SPANS:
        check += ["--require", name]
    checked = subprocess.run(check + [trace_path], capture_output=True, text=True)
    attempted += 1
    if checked.returncode != 0:
        failed += 1
        failures.append(checked.stdout.strip())
    print(f"workload {args.workload}, seed {args.seed}, traced; trace "
          f"{os.path.relpath(trace_path, root)}: {checked.stdout.strip()}")
    print(f"  {'layer':<10} {'calls':>9} {'total ms':>12} {'self ms':>12}")
    for layer, (calls, total, self_us) in sorted(layer_table(trace_path).items()):
        print(f"  {layer:<10} {calls:>9} {total / 1e3:>12.3f} {self_us / 1e3:>12.3f}")
    for name, value in sorted(report["layer"].items()):
        print(f"  {name} = {value:.6g}  [{report['layer_source'][name]}]")
    return dict(report["layer"]), attempted, failed, failures


def result_line(metric_specs, values, attempted, failed):
    metrics = {}
    for metric in metric_specs:
        value = values.get(metric["name"])
        if value is None:
            # Only failed operations may leave a metric unmeasured.
            if not failed:
                fail(f"metric {metric['name']} was not measured")
            value = 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def smoke(spec, build_dir, root):
    """Every workload at the smoke size, plain and traced."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1,
                                      small=True)
            if trace:
                values, attempted, failed, failures = traced_run(
                    build_dir, root, args)
                names = [m["name"] for m in spec["per_layer"]]
            else:
                report = run_driver(build_dir, workload, 1, 1, "run", small=True)
                values, attempted, failed, failures = (
                    dict(report["metrics"], setup_s=report["setup_s"]),
                    report["attempted"], report["failed"], report["failures"])
                names = [m["name"] for m in spec["end_to_end"]]
            missing = [n for n in names if values.get(n) is None]
            status = "ok" if not failed and not missing else "FAIL"
            ok = ok and status == "ok"
            print(f"smoke {workload} trace={trace}: {status}, {attempted} "
                  f"operations, {failed} failed {failures[:3]}, missing {missing}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    root = os.getcwd()
    build_dir = build(root)
    spec = load_spec(root)
    if args.smoke:
        sys.exit(0 if smoke(spec, build_dir, root) else 1)
    if args.workload is None:
        parser.error("--workload is required")
    args.small = False
    if args.trace:
        values, attempted, failed, failures = traced_run(build_dir, root, args)
        metric_specs = spec["per_layer"]
    else:
        values, attempted, failed, failures = plain_run(build_dir, args)
        metric_specs = spec["end_to_end"]
    for metric in metric_specs:
        if metric["name"] in values and not args.trace:
            print(f"  {metric['name']} = {values[metric['name']]:.6g} {metric['unit']}")
    print(f"  operations: {attempted} attempted, {failed} failed")
    for failure in failures:
        print(f"  FAILED: {failure}")
    print(result_line(metric_specs, values, attempted, failed))


if __name__ == "__main__":
    main()
