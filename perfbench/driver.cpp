// perfbench_driver — runs one benchmark workload in this process and
// prints one JSON report as the last line of stdout (run.py turns it into
// the benchmark's result line).
//
//   perfbench_driver --workload NAME --seed N --seconds S
//                    --mode run|setup|trace [--small 1] --work-dir DIR
//                    --serve-bin PATH [--trace-out FILE]
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>

#include "common.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace {

using namespace perfbench;

using Workload = void (*)(const Options&, Report&);

const std::map<std::string, Workload>& workloads() {
  static const std::map<std::string, Workload> table = {
      {"preset-sweep", preset_sweep},
      {"stream-ring", stream_ring},
      {"serve-curves", serve_curves}};
  return table;
}

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char text[32];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  out += lnc::util::json_escape(text);
  out += '"';
  return out;
}

template <typename Map, typename Format>
std::string object(const Map& map, Format format) {
  std::string out = "{";
  for (const auto& [key, value] : map) {
    if (out.size() > 1) out += ", ";
    out += quoted(key) + ": " + format(value);
  }
  return out + "}";
}

std::string report_json(const Options& options, const Report& report) {
  std::ostringstream os;
  os << "{\"workload\": " << quoted(options.workload)
     << ", \"seed\": " << options.seed << ", \"mode\": " << quoted(options.mode)
     << ", \"attempted\": " << report.attempted
     << ", \"failed\": " << report.failed << ", \"failures\": [";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    os << (i == 0 ? "" : ", ") << quoted(report.failures[i]);
  }
  os << "], \"setup_s\": " << number(report.setup_s)
     << ", \"metrics\": " << object(report.metrics, number)
     << ", \"latency\": " << object(report.latency, [](const Samples& s) {
          return "{\"count\": " + std::to_string(s.ms.size()) +
                 ", \"p50\": " + number(s.percentile(50)) +
                 ", \"p90\": " + number(s.percentile(90)) +
                 ", \"p99\": " + number(s.percentile(99)) +
                 ", \"p999\": " + number(s.percentile(99.9)) + "}";
        })
     << ", \"layer\": " << object(report.layer, number)
     << ", \"layer_source\": " << object(report.layer_source, quoted) << "}";
  return os.str();
}

bool parse_args(int argc, char** argv, Options& options, std::string& work_dir) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--mode") {
      options.mode = value;
    } else if (flag == "--small") {
      options.small = value == "1";
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--serve-bin") {
      options.serve_bin = value;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && workloads().count(options.workload) != 0 &&
         !work_dir.empty() &&
         (options.mode == "run" || options.mode == "setup" ||
          options.mode == "trace");
}

/// Traced run: the workload fills the per-layer metrics it exercises,
/// then the layer probes run, and the trace is written. Metrics only
/// another workload exercises (the serve session's, the streaming
/// loop's) come from that workload run at the smoke size, untraced.
void traced(const Options& options, Report& report) {
  lnc::obs::TraceRecorder& recorder = lnc::obs::TraceRecorder::instance();
  recorder.enable();
  lnc::obs::set_metrics_enabled(true);
  workloads().at(options.workload)(options, report);
  layer_probes(options, report);
  recorder.disable();
  lnc::obs::set_metrics_enabled(false);
  report.set_layer("obs.spans", static_cast<double>(recorder.event_count()),
                   options.workload);
  report.set_layer("obs.dropped_spans",
                   static_cast<double>(recorder.dropped_count()),
                   options.workload);
  std::string error;
  report.op(recorder.write_file(options.trace_path, &error),
            "cannot write the trace: " + error);
  recorder.clear();

  for (const auto& [name, run] : workloads()) {
    if (name == options.workload) continue;
    Options other = options;
    other.workload = name;
    other.small = true;
    Report side;
    run(other, side);
    recorder.disable();
    lnc::obs::set_metrics_enabled(false);
    recorder.clear();
    report.attempted += side.attempted;
    report.failed += side.failed;
    for (const std::string& failure : side.failures) {
      report.failures.push_back(name + ": " + failure);
    }
    for (const auto& [metric, value] : side.layer) {
      report.set_layer(metric, value, name + " (smoke size)");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string work_dir;
  if (!parse_args(argc, argv, options, work_dir)) {
    std::cerr << "usage: perfbench_driver --workload preset-sweep|stream-ring|"
                 "serve-curves --seed N --seconds S --mode run|setup|trace "
                 "[--small 1] --work-dir DIR --serve-bin PATH "
                 "[--trace-out FILE]\n";
    return 2;
  }
  try {
    std::filesystem::create_directories(work_dir);
    std::filesystem::current_path(work_dir);
    Report report;
    if (options.trace()) {
      traced(options, report);
    } else {
      workloads().at(options.workload)(options, report);
    }
    std::cout << report_json(options, report) << std::endl;
  } catch (const std::exception& ex) {
    std::cerr << "perfbench_driver: " << ex.what() << "\n";
    return 1;
  }
  return 0;
}
