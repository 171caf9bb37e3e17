#include "scenario/sweep.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/progress.h"
#include "obs/trace.h"
#include "scenario/spec_json.h"
#include "util/assert.h"
#include "util/build_info.h"
#include "util/file_util.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace lnc::scenario {
namespace {

/// Rows of fewer trials collect every ball live. Building a table costs
/// two collections per node, and each trial served from it saves one per
/// node, so a table pays back from the third trial on.
constexpr std::uint64_t kMinTableTrials = 3;

/// The most bytes one row's ball tables may take, measured before
/// allocating; a row over it collects live. It keeps a table small next
/// to the instance it speeds up: a radius-4 table of a 2^20-node ring
/// alone is over 200 MiB.
constexpr std::uint64_t kBallTableBudget = std::uint64_t{64} << 20;

/// Nodes per range of a table build spread over the runner's workers.
constexpr graph::NodeId kTableBuildRange = 1024;

/// A row's ball tables: one per radius of point.ball_radii, smallest
/// first, while their measured bytes fit kBallTableBudget together; none
/// for a row of fewer than kMinTableTrials trials. Each is measured, then
/// built, over node ranges on the runner's workers; measuring stops once
/// the row is over the budget, so an over-budget table costs at most
/// about a budget's worth of collections. Each table built gets one
/// `ball-table` trace span.
std::vector<graph::BallTable> build_ball_tables(
    const CompiledScenario::GridPoint& point, std::uint64_t trials,
    local::BatchRunner& runner) {
  std::vector<graph::BallTable> tables;
  if (trials < kMinTableTrials || point.ball_radii.empty()) return tables;
  const graph::Graph& g = point.instance->g;
  const graph::NodeId n = g.node_count();
  const std::uint64_t ranges = (n + kTableBuildRange - 1) / kTableBuildRange;
  std::vector<int> radii = point.ball_radii;
  std::sort(radii.begin(), radii.end());
  std::uint64_t row_bytes = 0;  // of the tables built so far
  for (const int radius : radii) {
    graph::BallTable table = graph::BallTable::unfilled(g, radius);
    auto over_ranges = [&](auto step) {
      runner.run_on_workers(
          ranges, [&](local::WorkerArena& arena, std::uint64_t i) {
            local::BallWorkspace& workspace = arena.ball_workspace();
            const graph::NodeId begin =
                static_cast<graph::NodeId>(i) * kTableBuildRange;
            step(begin, std::min(n, begin + kTableBuildRange),
                 workspace.ball, workspace.scratch);
          });
    };
    // A table's bytes() is 8 plus what its ranges measure.
    std::atomic<std::uint64_t> measured = row_bytes + 8;
    over_ranges([&](auto&... range) {
      if (measured <= kBallTableBudget) measured += table.measure(range...);
    });
    if (measured > kBallTableBudget) break;
    const obs::Span span(
        "ball-table",
        obs::span_args("radius", static_cast<std::uint64_t>(radius)) + ", " +
            obs::span_args("bytes", measured - row_bytes));
    row_bytes = measured;
    table.allocate();
    over_ranges([&](auto&... range) { table.fill(range...); });
    tables.push_back(std::move(table));
  }
  return tables;
}

}  // namespace

SweepResult run_sweep(const CompiledScenario& scenario,
                      const SweepOptions& options) {
  const local::TrialRange range = options.trial_range.value_or(
      local::TrialRange{0, scenario.spec().trials});
  LNC_EXPECTS(range.begin <= range.end &&
              range.end <= scenario.spec().trials &&
              "trial range outside [0, trials)");
  SweepResult result;
  result.scenario = scenario.spec().name;
  result.base_seed = scenario.spec().base_seed;
  result.workload = scenario.spec().workload;
  result.backend = scenario.spec().backend;
  // Every grid point shares the spec's trial count, so the slice is
  // uniform across rows and is the result's extent.
  result.trial_begin = range.begin;
  result.trial_end = range.end;

  local::BatchRunner runner(options.pool);
  runner.set_progress(options.progress);
  result.rows.reserve(scenario.points().size());
  const obs::Span sweep_span("sweep",
                             obs::span_args("scenario", result.scenario));
  for (const CompiledScenario::GridPoint& point : scenario.points()) {
    SweepRow row;
    row.requested_n = point.requested_n;
    row.actual_n = point.instance->node_count();
    row.total_trials = point.plan.trials;
    {
      // True elapsed wall-clock per grid point (one measurement, NOT the
      // per-trial sum telemetry.wall_seconds accumulates) plus the row's
      // trace span. Timing-only observability. The row's ball tables
      // live for this scope only.
      const obs::Span row_span("row", obs::span_args("n", row.requested_n));
      const util::Timer row_timer;
      const std::vector<graph::BallTable> tables =
          build_ball_tables(point, range.count(), runner);
      runner.set_ball_tables(tables);
      row.tally = runner.run_shard(point.plan, range);
      runner.set_ball_tables({});
      row.elapsed_seconds = row_timer.elapsed_seconds();
    }
    result.metrics.merge(runner.last_metrics());
    result.rows.push_back(row);
  }
  return result;
}

std::string can_merge_trial_ranges(std::span<const SweepResult> parts) {
  if (parts.empty()) return "no range partitions to merge";
  // Per row, the first counter width any part carries: a part without
  // counts merges as all-zero, but two non-empty widths must agree.
  std::vector<std::size_t> widths(parts[0].rows.size(), 0);
  std::uint64_t expected_begin = 0;
  std::uint64_t declared_total = 0;
  for (std::size_t s = 0; s < parts.size(); ++s) {
    const SweepResult& part = parts[s];
    if (part.scenario != parts[0].scenario ||
        part.base_seed != parts[0].base_seed ||
        part.rows.size() != parts[0].rows.size()) {
      return "range partitions come from different scenario runs ('" +
             part.scenario + "' vs '" + parts[0].scenario + "')";
    }
    if (part.workload != parts[0].workload) {
      return std::string("range partitions tally different workloads (") +
             local::to_string(part.workload) + " vs " +
             local::to_string(parts[0].workload) + ")";
    }
    if (part.trial_begin != expected_begin) {
      return "partition " + std::to_string(s) + " covers trials [" +
             std::to_string(part.trial_begin) + ", " +
             std::to_string(part.trial_end) + ") but [" +
             std::to_string(expected_begin) +
             ", ...) is the next uncovered range (partitions must "
             "abut exactly, without gaps or overlaps)";
    }
    if (part.trial_end < part.trial_begin) {
      return "partition " + std::to_string(s) + " has an inverted range";
    }
    const std::uint64_t extent = part.trial_end - part.trial_begin;
    for (std::size_t i = 0; i < part.rows.size(); ++i) {
      const SweepRow& row = part.rows[i];
      if (row.requested_n != parts[0].rows[i].requested_n) {
        return "range partitions disagree on the n-grid";
      }
      if (row.tally.trials != extent) {
        return "partition " + std::to_string(s) + " tallies " +
               std::to_string(row.tally.trials) + " trials at n = " +
               std::to_string(row.requested_n) +
               " but declares the range [" +
               std::to_string(part.trial_begin) + ", " +
               std::to_string(part.trial_end) + ")";
      }
      if (!row.tally.counts.empty()) {
        if (widths[i] == 0) widths[i] = row.tally.counts.size();
        if (row.tally.counts.size() != widths[i]) {
          return "range partitions carry counter rows of different "
                 "widths (" +
                 std::to_string(row.tally.counts.size()) + " vs " +
                 std::to_string(widths[i]) + " slots at n = " +
                 std::to_string(row.requested_n) + ")";
        }
      }
      declared_total = std::max(declared_total, row.total_trials);
    }
    expected_begin = part.trial_end;
  }
  if (expected_begin != declared_total) {
    return "the partitions cover trials [0, " +
           std::to_string(expected_begin) + ") of " +
           std::to_string(declared_total) +
           " (missing or extra shard files)";
  }
  return {};
}

SweepResult merge_trial_ranges(std::span<const SweepResult> parts) {
  LNC_EXPECTS(can_merge_trial_ranges(parts).empty() &&
              "merging range partitions that do not fit together");
  SweepResult merged = parts[0];
  for (std::size_t s = 1; s < parts.size(); ++s) {
    const SweepResult& part = parts[s];
    merged.metrics.merge(part.metrics);
    for (std::size_t i = 0; i < merged.rows.size(); ++i) {
      // Every block sums exactly: the result equals a single run over
      // the union range bit for bit. Elapsed seconds add up to the
      // fleet's machine-time.
      merged.rows[i].tally.merge(part.rows[i].tally);
      merged.rows[i].elapsed_seconds += part.rows[i].elapsed_seconds;
    }
  }
  merged.trial_end = parts.back().trial_end;
  for (SweepRow& row : merged.rows) {
    // The merged result is a complete run at the union's trial count —
    // the partitions' own totals (a cached run at T' carries T', its
    // top-up carries T) are superseded.
    row.total_trials = merged.trial_end;
  }
  return merged;
}

stats::Estimate row_estimate(const SweepRow& row) {
  LNC_EXPECTS(row.tally.trials == row.total_trials &&
              "estimate of an incomplete (sharded) row");
  return stats::finalize_estimate(row.tally.successes, row.tally.trials);
}

stats::MeanEstimate row_mean(const SweepRow& row) {
  LNC_EXPECTS(row.tally.trials == row.total_trials &&
              "mean of an incomplete (sharded) row");
  return stats::finalize_mean_exact(row.tally.value_sum,
                                    row.tally.value_sum_sq,
                                    row.tally.trials);
}

local::Telemetry result_telemetry(const SweepResult& result) {
  local::Telemetry merged;
  for (const SweepRow& row : result.rows) merged.merge(row.tally.telemetry);
  return merged;
}

namespace {

void add_telemetry_cells(util::Table& table, const SweepRow& row) {
  table.add_cell(row.tally.telemetry.messages_sent)
      .add_cell(row.tally.telemetry.words_sent)
      .add_cell(row.tally.telemetry.rounds_executed)
      .add_cell(row.tally.telemetry.ball_expansions);
}

std::uint64_t row_count_sum(const SweepRow& row) {
  std::uint64_t sum = 0;
  for (const std::uint64_t count : row.tally.counts) sum += count;
  return sum;
}

/// Full round-trip precision — the form the grep-stable summary lines and
/// the JSON sum fields use, so textual equality implies bit equality.
std::string format_exact(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

/// The tally column(s) of one row, headed per workload.
void add_workload_headers(std::vector<std::string>& headers,
                          local::WorkloadKind workload, bool complete) {
  switch (workload) {
    case local::WorkloadKind::kSuccess:
      if (complete) {
        headers.insert(headers.end(),
                       {"successes", "p_hat", "ci lo", "ci hi"});
      } else {
        headers.push_back("shard successes");
      }
      break;
    case local::WorkloadKind::kValue:
      if (complete) {
        headers.insert(headers.end(), {"mean", "stddev"});
      } else {
        headers.push_back("shard sum");
      }
      break;
    case local::WorkloadKind::kCounter:
      if (complete) {
        headers.insert(headers.end(), {"count", "mean/trial"});
      } else {
        headers.push_back("shard count");
      }
      break;
  }
}

void add_workload_cells(util::Table& table, const SweepRow& row,
                        local::WorkloadKind workload, bool complete) {
  switch (workload) {
    case local::WorkloadKind::kSuccess:
      if (complete) {
        const stats::Estimate estimate = row_estimate(row);
        table.add_cell(row.tally.successes)
            .add_cell(estimate.p_hat, 4)
            .add_cell(estimate.ci.lo, 4)
            .add_cell(estimate.ci.hi, 4);
      } else {
        table.add_cell(row.tally.successes);
      }
      break;
    case local::WorkloadKind::kValue:
      if (complete) {
        const stats::MeanEstimate mean = row_mean(row);
        table.add_cell(mean.mean, 4).add_cell(mean.stddev, 4);
      } else {
        table.add_cell(row.tally.value_sum.value(), 4);
      }
      break;
    case local::WorkloadKind::kCounter: {
      const std::uint64_t sum = row_count_sum(row);
      table.add_cell(sum);
      if (complete) {
        table.add_cell(row.tally.trials == 0
                           ? 0.0
                           : static_cast<double>(sum) /
                                 static_cast<double>(row.tally.trials),
                       4);
      }
      break;
    }
  }
}

}  // namespace

util::Table to_table(const SweepResult& result, bool with_telemetry) {
  // Only the deterministic counters appear as columns — the table stays
  // diffable across thread counts and shard layouts; timing lives in the
  // JSON telemetry block and the CLI's `timing:` line.
  const std::vector<std::string> telemetry_headers = {"msgs", "words",
                                                      "rounds", "balls"};
  const bool complete = result.complete();
  std::vector<std::string> headers = {"n", "actual n"};
  headers.push_back(complete ? "trials" : "shard trials");
  add_workload_headers(headers, result.workload, complete);
  if (!complete) headers.push_back("of total");
  if (with_telemetry) {
    headers.insert(headers.end(), telemetry_headers.begin(),
                   telemetry_headers.end());
  }
  util::Table table(std::move(headers));
  for (const SweepRow& row : result.rows) {
    table.new_row()
        .add_cell(row.requested_n)
        .add_cell(row.actual_n)
        .add_cell(row.tally.trials);
    add_workload_cells(table, row, result.workload, complete);
    if (!complete) table.add_cell(row.total_trials);
    if (with_telemetry) add_telemetry_cells(table, row);
  }
  return table;
}

std::vector<std::string> summary_lines(const SweepResult& result) {
  std::vector<std::string> lines;
  if (!result.complete() ||
      result.workload == local::WorkloadKind::kSuccess) {
    return lines;
  }
  for (const SweepRow& row : result.rows) {
    const std::string where =
        result.scenario + "/n" + std::to_string(row.requested_n);
    if (result.workload == local::WorkloadKind::kValue) {
      const stats::MeanEstimate mean = row_mean(row);
      lines.push_back("value[" + where + "]: mean=" +
                      format_exact(mean.mean) + " stddev=" +
                      format_exact(mean.stddev) + " trials=" +
                      std::to_string(mean.trials));
    } else {
      const std::uint64_t sum = row_count_sum(row);
      const double mean =
          row.tally.trials == 0
              ? 0.0
              : static_cast<double>(sum) /
                    static_cast<double>(row.tally.trials);
      lines.push_back("counter[" + where + "]: sum=" + std::to_string(sum) +
                      " mean=" + format_exact(mean) + " trials=" +
                      std::to_string(row.tally.trials));
    }
  }
  return lines;
}

void write_json(std::ostream& os, const SweepResult& result) {
  os << "{\"scenario\": \"" << util::json_escape(result.scenario)
     << "\", \"base_seed\": " << result.base_seed << ", \"workload\": \""
     << local::to_string(result.workload) << "\", \"backend\": \""
     << local::to_string(result.backend)
     << "\", \"trial_begin\": " << result.trial_begin
     << ", \"trial_end\": " << result.trial_end
     << ", \"seed_stream_epoch\": " << util::seed_stream_epoch()
     << ", \"build_rev\": \"" << util::json_escape(util::build_rev())
     << "\", \"rows\": [";
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const SweepRow& row = result.rows[i];
    if (i > 0) os << ", ";
    os << "{\"n\": " << row.requested_n << ", \"actual_n\": " << row.actual_n
       << ", \"total_trials\": " << row.total_trials
       << ", \"trials\": " << row.tally.trials
       << ", \"successes\": " << row.tally.successes;
    if (result.workload == local::WorkloadKind::kValue) {
      // sum/sum_sq are the human-readable rounded views; the exact hex
      // words are what cross-process merges actually accumulate.
      os << ", \"values\": {\"sum\": "
         << format_exact(row.tally.value_sum.value()) << ", \"sum_sq\": "
         << format_exact(row.tally.value_sum_sq.value())
         << ", \"exact_sum\": \"" << row.tally.value_sum.to_hex()
         << "\", \"exact_sum_sq\": \"" << row.tally.value_sum_sq.to_hex()
         << "\"}";
    }
    if (result.workload == local::WorkloadKind::kCounter) {
      os << ", \"counts\": [";
      for (std::size_t j = 0; j < row.tally.counts.size(); ++j) {
        if (j > 0) os << ", ";
        os << row.tally.counts[j];
      }
      os << "]";
    }
    os << ", \"telemetry\": " << telemetry_to_json(row.tally.telemetry)
       << ", \"elapsed_seconds\": " << format_exact(row.elapsed_seconds)
       << "}";
  }
  os << "]";
  if (!result.metrics.empty()) {
    // Optional observability block (lnc_sweep --trace): timing
    // histograms merged across workers. Machine-dependent by nature;
    // every determinism gate ignores it.
    os << ", \"metrics\": " << result.metrics.to_json();
  }
  os << "}\n";
}

SweepResult sweep_from_json(const std::string& text,
                            std::vector<std::string>* warnings) {
  return sweep_from_json(Json::parse(text), warnings);
}

SweepResult sweep_from_json(const Json& root,
                            std::vector<std::string>* warnings) {
  // Deduplicated by (where, key): a 50-row shard file with one foreign
  // row key warns once, not 50 times.
  std::set<std::pair<std::string, std::string>> warned;
  auto warn_unknown = [&](const Json::Object& object,
                          std::initializer_list<const char*> known,
                          const std::string& where) {
    if (warnings == nullptr) return;
    for (const auto& [key, value] : object) {
      (void)value;
      bool recognized = false;
      for (const char* name : known) recognized |= key == name;
      if (!recognized && warned.emplace(where, key).second) {
        warnings->push_back("unrecognized " + where + " key '" + key +
                            "' (shard file written by a different "
                            "lnc_sweep generation?)");
      }
    }
  };
  warn_unknown(root.as_object(),
               {"scenario", "base_seed", "shard", "shard_count", "workload",
                "backend", "trial_begin", "trial_end", "seed_stream_epoch",
                "build_rev", "rows", "metrics"},
               "top-level");
  SweepResult result;
  result.scenario = root.at("scenario").as_string();
  result.base_seed = root.at("base_seed").as_uint64();
  if (root.has("trial_begin")) {
    result.trial_begin = root.at("trial_begin").as_uint64();
  }
  if (root.has("trial_end")) {
    result.trial_end = root.at("trial_end").as_uint64();
  }
  if (warnings != nullptr && root.has("seed_stream_epoch")) {
    const std::uint64_t epoch = root.at("seed_stream_epoch").as_uint64();
    if (epoch != util::seed_stream_epoch()) {
      warnings->push_back(
          "result file was written at seed-stream epoch " +
          std::to_string(epoch) + " but this binary is at epoch " +
          std::to_string(util::seed_stream_epoch()) +
          " — its trial streams are NOT mergeable with fresh runs");
    }
  }
  if (root.has("workload")) {
    // Absent in files written by success-only binary generations.
    const std::string& workload = root.at("workload").as_string();
    const std::optional<local::WorkloadKind> kind =
        local::workload_from_string(workload);
    if (!kind) {
      throw std::runtime_error("shard file 'workload' must be "
                               "success|value|counter, got '" +
                               workload + "'");
    }
    result.workload = *kind;
  }
  if (root.has("backend")) {
    // Absent in files written by pre-backend binary generations.
    const std::string& backend = root.at("backend").as_string();
    const std::optional<local::OptimizationConfig::Backend> parsed =
        local::backend_from_string(backend);
    if (!parsed) {
      throw std::runtime_error(
          "shard file 'backend' must be auto|naive|batched|vectorized, "
          "got '" + backend + "'");
    }
    result.backend = *parsed;
  }
  for (const Json& row_json : root.at("rows").as_array()) {
    warn_unknown(row_json.as_object(),
                 {"n", "actual_n", "total_trials", "trials", "successes",
                  "values", "counts", "telemetry", "elapsed_seconds"},
                 "row");
    SweepRow row;
    row.requested_n = row_json.at("n").as_uint64();
    row.actual_n = row_json.at("actual_n").as_uint64();
    row.total_trials = row_json.at("total_trials").as_uint64();
    row.tally.trials = row_json.at("trials").as_uint64();
    row.tally.successes = row_json.at("successes").as_uint64();
    if (row_json.has("values")) {
      const Json& values = row_json.at("values");
      warn_unknown(values.as_object(),
                   {"sum", "sum_sq", "exact_sum", "exact_sum_sq"},
                   "values-block");
      // The exact hex words are authoritative; the rounded doubles are a
      // fallback for hand-written files (exactness then only holds for
      // sums that are representable, e.g. small integers).
      if (values.has("exact_sum")) {
        row.tally.value_sum =
            stats::ExactSum::from_hex(values.at("exact_sum").as_string());
      } else if (values.has("sum")) {
        row.tally.value_sum.add(values.at("sum").as_number());
      }
      if (values.has("exact_sum_sq")) {
        row.tally.value_sum_sq =
            stats::ExactSum::from_hex(values.at("exact_sum_sq").as_string());
      } else if (values.has("sum_sq")) {
        row.tally.value_sum_sq.add(values.at("sum_sq").as_number());
      }
    }
    if (row_json.has("counts")) {
      for (const Json& count : row_json.at("counts").as_array()) {
        row.tally.counts.push_back(count.as_uint64());
      }
    }
    if (row_json.has("telemetry")) {
      row.tally.telemetry = telemetry_from_json(row_json.at("telemetry"));
    }
    if (row_json.has("elapsed_seconds")) {
      row.elapsed_seconds = row_json.at("elapsed_seconds").as_number();
    }
    result.rows.push_back(row);
  }
  if (root.has("metrics")) {
    result.metrics = obs::MetricsRegistry::from_json(
        root.at("metrics"), "metrics", warnings);
  }
  if (!root.has("trial_begin") && !root.has("trial_end")) {
    // Files written before results carried their range name an i-of-k
    // shard instead; its range is a pure function of the index.
    const std::uint64_t shard = root.at("shard").as_uint64();
    const std::uint64_t shard_count = root.at("shard_count").as_uint64();
    if (shard_count == 0 || shard >= shard_count ||
        shard_count > std::numeric_limits<unsigned>::max()) {
      throw std::runtime_error("shard file names shard " +
                               std::to_string(shard) + " of " +
                               std::to_string(shard_count) +
                               ", which is out of range");
    }
    const local::TrialRange range = local::shard_range(
        result.rows.empty() ? 0 : result.rows[0].total_trials,
        static_cast<unsigned>(shard), static_cast<unsigned>(shard_count));
    result.trial_begin = range.begin;
    result.trial_end = range.end;
  }
  return result;
}

std::string write_json_file(const std::string& path,
                            const SweepResult& result) {
  std::ostringstream os;
  write_json(os, result);
  return util::write_file_atomic(path, os.str());
}

SweepResult merge_sweep_files(std::span<const std::string> paths,
                              std::vector<std::string>* warnings) {
  if (paths.empty()) {
    throw std::runtime_error("no shard result files to merge");
  }
  std::vector<SweepResult> shards;
  shards.reserve(paths.size());
  for (const std::string& path : paths) {
    std::string text;
    const std::string read_error = util::read_file(path, text);
    if (!read_error.empty()) {
      throw std::runtime_error("shard result: " + read_error);
    }
    std::vector<std::string> file_warnings;
    try {
      shards.push_back(sweep_from_json(
          text, warnings != nullptr ? &file_warnings : nullptr));
    } catch (const std::exception& ex) {
      throw std::runtime_error("shard result '" + path +
                               "': " + ex.what());
    }
    if (warnings != nullptr) {
      for (const std::string& warning : file_warnings) {
        warnings->push_back(path + ": " + warning);
      }
    }
  }
  if (warnings != nullptr) {
    // Mixed backends still merge bit-identically (that contract is what
    // tests/vector_engine_test.cpp asserts), so a mismatch is a warning,
    // not a merge failure — but a fleet silently running half naive and
    // half vectorized is worth surfacing.
    for (std::size_t s = 1; s < shards.size(); ++s) {
      if (shards[s].backend != shards[0].backend) {
        warnings->push_back(
            std::string("shard files were produced under different "
                        "backends (") +
            local::to_string(shards[0].backend) + " vs " +
            local::to_string(shards[s].backend) +
            "); tallies still merge bit-identically");
        break;
      }
    }
  }
  // Files merge in any order: shells glob shard-10 before shard-2.
  std::stable_sort(shards.begin(), shards.end(),
                   [](const SweepResult& a, const SweepResult& b) {
                     return a.trial_begin < b.trial_begin;
                   });
  const std::string error = can_merge_trial_ranges(shards);
  if (!error.empty()) {
    throw std::runtime_error("cannot merge shard results: " + error);
  }
  return merge_trial_ranges(shards);
}

}  // namespace lnc::scenario
