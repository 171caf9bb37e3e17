#!/usr/bin/env python3
"""CI bench-artifact schema gate.

Usage: check_schema.py GOLDEN_LIST BENCH_JSON_DIR

Diffs the TABLE_*.json files a bench run produced against the checked-in
golden list (bench/schema/TABLES.txt) so silently dropped — or silently
added/renamed — tables fail the build instead of quietly vanishing from
the uploaded trajectory artifact. Each present table must also parse as
JSON with the expected top-level shape: "headers" (non-empty) and "rows"
(row width == header width); an optional "telemetry" object must carry
the counter keys written by scenario::telemetry_to_json, and an optional
"optimization" object the backend keys written by
scenario::optimization_to_json.

When a bench binary legitimately gains or loses a table, regenerate the
golden list:

    mkdir -p /tmp/bj
    for b in ./build/bench_*; do LNC_BENCH_JSON_DIR=/tmp/bj "$b" >/dev/null; done
    ls /tmp/bj | grep '^TABLE_' | sort > bench/schema/TABLES.txt
"""
import json
import os
import sys

TELEMETRY_KEYS = {"messages", "words", "rounds", "ball_expansions",
                  "arena_peak_bytes", "wall_seconds"}
OPTIMIZATION_KEYS = {"backend", "batch_trials"}
BACKENDS = {"auto", "naive", "batched", "vectorized"}


def check_table(path):
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data.get("headers"), list) or not data["headers"]:
        return "missing or empty 'headers'"
    if not isinstance(data.get("rows"), list):
        return "missing 'rows'"
    width = len(data["headers"])
    for i, row in enumerate(data["rows"]):
        if len(row) != width:
            return f"row {i} has {len(row)} cells, headers have {width}"
    if "telemetry" in data:
        missing = TELEMETRY_KEYS - set(data["telemetry"])
        if missing:
            return f"telemetry object missing {sorted(missing)}"
    if "optimization" in data:
        missing = OPTIMIZATION_KEYS - set(data["optimization"])
        if missing:
            return f"optimization object missing {sorted(missing)}"
        backend = data["optimization"].get("backend")
        if backend not in BACKENDS:
            return f"optimization backend {backend!r} not in {sorted(BACKENDS)}"
    return None


def main(argv):
    if len(argv) != 3:
        raise SystemExit(__doc__)
    golden_list, bench_dir = argv[1], argv[2]
    with open(golden_list) as f:
        golden = {line.strip() for line in f if line.strip()}
    actual = {name for name in os.listdir(bench_dir)
              if name.startswith("TABLE_") and name.endswith(".json")}

    problems = []
    for name in sorted(golden - actual):
        problems.append(f"dropped table: {name} (in the golden list but "
                        "not produced by this run)")
    for name in sorted(actual - golden):
        problems.append(f"unexpected table: {name} (produced but not in "
                        f"{golden_list} — update the golden list)")
    for name in sorted(golden & actual):
        error = check_table(os.path.join(bench_dir, name))
        if error:
            problems.append(f"malformed table {name}: {error}")

    if problems:
        print("bench JSON schema gate FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(f"bench JSON schema gate OK: {len(golden)} tables match "
          f"{golden_list}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
