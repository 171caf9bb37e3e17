// Minimal JSON support for the scenario subsystem: parsing scenario spec
// files (scenarios/*.json, lnc_sweep --spec) and shard-result files
// (sweep.h round trip). Deliberately small — objects, arrays, strings,
// numbers, booleans, null — with offsets in error messages; not a general
// JSON library.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "scenario/scenario.h"

namespace lnc::scenario {

/// A parsed JSON value. Parsing throws std::runtime_error (with character
/// offset) on malformed input; accessors throw on kind/key mismatches so
/// spec errors surface as readable messages instead of silent defaults.
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  /// Deepest container nesting parse() accepts. The stack's own artifacts
  /// nest under 10 deep (a traced sweep JSON: 6); deeper input is a parse
  /// error at the offset of the first container past the cap.
  static constexpr int kMaxDepth = 64;
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// Set when the token was a plain non-negative integer that fits
  /// std::uint64_t — seeds, trial counts, and tallies use the exact value
  /// (doubles lose integers above 2^53).
  bool is_uint64 = false;
  std::uint64_t integer = 0;
  std::string string;
  Array array;
  Object object;

  static Json parse(const std::string& text);

  bool has(const std::string& key) const;
  /// Member access (requires kObject and key present).
  const Json& at(const std::string& key) const;

  double as_number() const;
  /// Exact 64-bit read (requires a plain non-negative integer token).
  std::uint64_t as_uint64() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
};

/// Parses a ScenarioSpec from its JSON form:
///
///   {"name": "...", "doc": "...",
///    "topology": "...", "language": "...",
///    "construction": "...", "decider": "...",
///    "params": {"colors": 3},
///    "workload": "success" | "value" | "counter",
///    "statistic": "rounds",            // value/counter workloads only
///    "n": [16, 64], "trials": 2000, "seed": 1,
///    "success": "accept" | "reject",
///    "mode": "balls" | "messages" | "two-phase",
///    "backend": "auto" | "naive" | "batched" | "vectorized",
///    "execution": "auto" | "materialized" | "implicit"}
///
/// Unknown top-level keys are rejected. Does NOT validate against the
/// registries — call scenario::validate on the result.
ScenarioSpec spec_from_json(const std::string& text);

/// Same, from an already-parsed JSON object — used where a spec is
/// embedded inside a larger document (cache entry files, serve
/// requests).
ScenarioSpec spec_from_json(const Json& root);

/// The spec with every field that does not affect WHICH curve is being
/// computed reset to a fixed value: trials and seed (the cache stores
/// accumulators over an explicit trial range at the entry's own seed),
/// name and doc (labels), backend (all backends are bit-identical by
/// contract — CI's backend identity gate), and execution (implicit and
/// materialized runs of one spec are bit-identical by contract — CI's
/// implicit topology gate — so either path tops up the same cache
/// entry). Execution mode is KEPT: ball-mode and message-mode telemetry
/// differ (measured vs modeled), so they are different cacheable
/// results. serve::cache_key hashes
/// spec_to_json(cache_normal_form(spec)).
ScenarioSpec cache_normal_form(const ScenarioSpec& spec);

/// Inverse of spec_from_json: serializes a spec in the scenarios/*.json
/// form. Numeric parameters print with full round-trip precision and
/// seeds/trials as exact integers, so spec_from_json(spec_to_json(spec))
/// reproduces the spec FIELD FOR FIELD — the contract that lets the
/// distributed launcher (src/orchestrate) hand a spec to remote
/// lnc_sweep shards and still merge bit-identically.
std::string spec_to_json(const ScenarioSpec& spec);

/// Serializes a telemetry block as a JSON object — the shared wire form
/// used by sweep shard files (scenario/sweep.cpp) and the bench binaries'
/// TABLE_*.json `telemetry` member (bench/bench_common.h):
///
///   {"messages": M, "words": W, "rounds": R, "ball_expansions": B,
///    "arena_peak_bytes": A, "wall_seconds": S}
std::string telemetry_to_json(const local::Telemetry& telemetry);

/// Reads a telemetry block written by telemetry_to_json. Missing keys
/// default to zero (forward compatibility with pre-telemetry files).
local::Telemetry telemetry_from_json(const Json& json);

/// Serializes a backend/tuning configuration as a JSON object — the wire
/// form bench TABLE_*.json files attach as their `optimization` member so
/// ablation trajectories record exactly which backend produced a row:
///
///   {"backend": "vectorized", "batch_trials": 32}
std::string optimization_to_json(const local::OptimizationConfig& config);

}  // namespace lnc::scenario
