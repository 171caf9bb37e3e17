// Shared helpers for the experiment binaries: a standard preamble, the
// table printer, and a main that prints the binary's reproduced tables.
// The binaries take no command-line arguments.
//
// Machine-readable output: when LNC_BENCH_JSON_DIR is set, every printed
// table is also written as JSON to <dir>/TABLE_<experiment>_<k>.json —
// the per-PR trajectory files CI archives. A table file that cannot be
// written is an error (exit 1), never a silently missing trajectory.
#pragma once

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "local/telemetry.h"
#include "scenario/spec_json.h"
#include "util/table.h"

namespace lnc::bench {
namespace detail {

inline std::string& current_experiment() {
  static std::string name;
  return name;
}

/// Monotonic across the whole binary — NEVER reset per header. Two
/// experiments that slugify to the same name would otherwise restart the
/// numbering and overwrite each other's TABLE_*.json files.
inline int& table_index() {
  static int index = 0;
  return index;
}

inline std::string slugify(const std::string& text) {
  std::string slug;
  for (char ch : text) {
    if (std::isalnum(static_cast<unsigned char>(ch))) {
      slug.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(ch))));
    } else if (!slug.empty() && slug.back() != '-') {
      slug.push_back('-');
    }
  }
  while (!slug.empty() && slug.back() == '-') slug.pop_back();
  return slug.empty() ? "experiment" : slug;
}

}  // namespace detail

inline void print_header(const std::string& experiment,
                         const std::string& paper_source,
                         const std::string& claim) {
  detail::current_experiment() = detail::slugify(experiment);
  std::cout << "\n=== " << experiment << " — " << paper_source << " ===\n"
            << claim << "\n\n";
}

/// Prints the table; when LNC_BENCH_JSON_DIR is set, the JSON file also
/// carries a `telemetry` object when one is supplied — the communication
/// volume behind the table's numbers (local/telemetry.h) — and an
/// `optimization` object naming the backend configuration the rows ran
/// under (local/vector_engine.h), so TABLE_*.json trajectories record
/// message/word volume and the producing backend next to the reproduced
/// values. Exits 1, naming the path, when the file cannot be written.
inline void print_table(const util::Table& table,
                        const local::Telemetry* telemetry = nullptr,
                        const local::OptimizationConfig* optimization =
                            nullptr) {
  table.print(std::cout);
  std::cout << '\n';
  const char* json_dir = std::getenv("LNC_BENCH_JSON_DIR");
  if (json_dir == nullptr) return;
  const std::string path = std::string(json_dir) + "/TABLE_" +
                           detail::current_experiment() + "_" +
                           std::to_string(detail::table_index()++) + ".json";
  std::string extra;
  if (telemetry != nullptr) {
    extra += "\"telemetry\": " + scenario::telemetry_to_json(*telemetry);
  }
  if (optimization != nullptr) {
    if (!extra.empty()) extra += ", ";
    extra +=
        "\"optimization\": " + scenario::optimization_to_json(*optimization);
  }
  std::ofstream out(path);
  if (out) table.print_json(out, extra);
  out.close();
  if (!out) {
    std::cout.flush();
    std::cerr << "invalid file name: '" << path << "'\n";
    std::exit(1);
  }
}

/// Standard main body: rejects any argument, then prints the tables.
inline int run_tables_main(int argc, char** argv, void (*print_tables_fn)()) {
  if (argc > 1) {
    std::cerr << "error: unrecognized command-line flag: " << argv[1] << '\n';
    return 1;
  }
  print_tables_fn();
  return 0;
}

#define LNC_BENCH_MAIN(print_tables_fn)                                 \
  int main(int argc, char** argv) {                                     \
    return ::lnc::bench::run_tables_main(argc, argv, print_tables_fn); \
  }

}  // namespace lnc::bench
