#include "common.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rand/splitmix.h"
#include "serve/result_store.h"

namespace perfbench {

using namespace lnc;

double Samples::percentile(double p) const {
  if (ms.empty()) return 0.0;
  std::vector<double> sorted = ms;
  std::sort(sorted.begin(), sorted.end());
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double Samples::sum() const { return std::accumulate(ms.begin(), ms.end(), 0.0); }

void Report::op(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 10) failures.push_back(what);
}

void Report::set_layer(const std::string& name, double value,
                       const std::string& source) {
  if (layer.count(name) != 0) return;
  layer[name] = value;
  layer_source[name] = source;
}

std::string fingerprint(const scenario::SweepResult& result) {
  std::ostringstream os;
  for (const scenario::SweepRow& row : result.rows) {
    const local::ShardTally& tally = row.tally;
    const local::Telemetry& t = tally.telemetry;
    os << row.requested_n << ' ' << row.actual_n << ' ' << row.total_trials
       << ' ' << tally.trials << ' ' << tally.successes << ' '
       << tally.value_sum.to_hex() << ' ' << tally.value_sum_sq.to_hex();
    for (const std::uint64_t count : tally.counts) os << ' ' << count;
    os << ' ' << t.messages_sent << ' ' << t.words_sent << ' '
       << t.rounds_executed << ' ' << t.ball_expansions << ' '
       << t.messages_dropped << ' ' << t.nodes_crashed << ' '
       << t.edges_churned << '\n';
  }
  return os.str();
}

double node_trials(const scenario::SweepResult& result) {
  double total = 0.0;
  for (const scenario::SweepRow& row : result.rows) {
    total += static_cast<double>(row.actual_n) *
             static_cast<double>(row.tally.trials);
  }
  return total;
}

double proc_status_field(int pid, const std::string& field) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1));
    }
  }
  return -1.0;
}

void set_tracing(bool on) {
  if (on) {
    obs::TraceRecorder::instance().enable();
  } else {
    obs::TraceRecorder::instance().disable();
  }
  obs::set_metrics_enabled(on);
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  return rand::splitmix64(rand::splitmix64(seed) ^ (tag * 0x9E3779B97F4A7C15ULL));
}

void layer_metrics_from_results(
    const std::vector<scenario::SweepResult>& results, unsigned workers,
    const std::string& source, Report& report) {
  double trials = 0, work = 0, busy = 0, elapsed = 0;
  local::Telemetry telemetry;
  for (const scenario::SweepResult& result : results) {
    for (const scenario::SweepRow& row : result.rows) {
      trials += static_cast<double>(row.tally.trials);
      telemetry.merge(row.tally.telemetry);
      busy += row.tally.telemetry.wall_seconds;
      elapsed += row.elapsed_seconds;
    }
    work += node_trials(result);
  }
  report.set_layer("local.trials", trials, source);
  report.set_layer("local.node_trials", work, source);
  if (work > 0) {
    report.set_layer("local.messages_per_node_trial",
                     static_cast<double>(telemetry.messages_sent) / work, source);
    report.set_layer("local.words_per_node_trial",
                     static_cast<double>(telemetry.words_sent) / work, source);
    report.set_layer("local.ball_expansions_per_node_trial",
                     static_cast<double>(telemetry.ball_expansions) / work, source);
  }
  if (trials > 0) {
    report.set_layer("local.rounds_per_trial",
                     static_cast<double>(telemetry.rounds_executed) / trials,
                     source);
  }
  if (elapsed > 0) {
    report.set_layer("local.busy_share", busy / (elapsed * workers), source);
  }
}

void vectorized_share(const std::vector<scenario::CompiledScenario>& all,
                      const std::string& source, Report& report) {
  double vectorized = 0, total = 0;
  for (const scenario::CompiledScenario& compiled : all) {
    for (const auto& point : compiled.points()) {
      const double trials = static_cast<double>(point.plan.trials);
      total += trials;
      if (point.plan.optimization.backend ==
              local::OptimizationConfig::Backend::kVectorized &&
          point.plan.vector.engaged()) {
        vectorized += trials;
      }
    }
  }
  if (total > 0) {
    report.set_layer("local.vectorized_trial_share", vectorized / total, source);
  }
}

void layer_metrics_from_entries(
    const std::vector<scenario::ScenarioSpec>& specs,
    const std::vector<scenario::SweepResult>& results,
    const std::string& source, Report& report) {
  const std::string store_dir = "entries";
  double bytes = 0, write_s = 0, parse_s = 0, store_s = 0, lookup_s = 0;
  double entry_bytes = 0;
  std::filesystem::remove_all(store_dir);
  const serve::ResultStore store(store_dir);
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::string text;
    {
      const obs::Span span("scenario.write_json");
      const double start = now_seconds();
      std::ostringstream os;
      scenario::write_json(os, results[i]);
      text = os.str();
      write_s += now_seconds() - start;
    }
    {
      const obs::Span span("scenario.sweep_from_json");
      const double start = now_seconds();
      const scenario::SweepResult parsed = scenario::sweep_from_json(text);
      parse_s += now_seconds() - start;
      report.op(fingerprint(parsed) == fingerprint(results[i]),
                "JSON round trip changed the result of " + specs[i].name);
    }
    bytes += static_cast<double>(text.size());

    scenario::ScenarioSpec spec = specs[i];
    spec.trials = results[i].rows.empty() ? spec.trials
                                          : results[i].rows[0].total_trials;
    serve::CacheEntry entry{serve::cache_key(spec), 0, {}, spec, results[i]};
    {
      const obs::Span span("serve.store");
      const double start = now_seconds();
      const std::string error = store.store(entry);
      store_s += now_seconds() - start;
      report.op(error.empty(), "ResultStore::store: " + error);
    }
    {
      const obs::Span span("serve.lookup");
      const double start = now_seconds();
      const std::optional<serve::CacheEntry> found = store.lookup(entry.key);
      lookup_s += now_seconds() - start;
      report.op(found && fingerprint(found->result) == fingerprint(results[i]),
                "ResultStore::lookup did not return the stored entry");
    }
    entry_bytes += static_cast<double>(
        std::filesystem::file_size(store.path_for(entry.key)));
  }
  std::filesystem::remove_all(store_dir);
  const double count = static_cast<double>(results.size());
  if (count == 0) return;
  report.set_layer("scenario.json_write_mb_per_s", bytes / 1e6 / write_s, source);
  report.set_layer("scenario.json_parse_mb_per_s", bytes / 1e6 / parse_s, source);
  report.set_layer("serve.store_ms", store_s * 1e3 / count, source);
  report.set_layer("serve.lookup_ms", lookup_s * 1e3 / count, source);
  report.set_layer("serve.entry_kb", entry_bytes / 1024.0 / count, source);
}

}  // namespace perfbench
