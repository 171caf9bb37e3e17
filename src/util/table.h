// Aligned console tables with optional CSV emission. The E-series benchmark
// binaries print the paper's reproduced "tables and figures" through this
// formatter so that bench output is diffable and machine-readable.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace lnc::util {

/// A simple column-aligned table. Cells are strings; numeric helpers format
/// with fixed precision. Rendering pads columns to the widest cell.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Starts a new row; subsequent add_cell calls append to it.
  Table& new_row();

  Table& add_cell(std::string value);
  Table& add_cell(double value, int precision = 4);
  Table& add_cell(std::uint64_t value);
  Table& add_cell(int value);

  std::size_t row_count() const noexcept { return rows_.size(); }
  std::size_t column_count() const noexcept { return headers_.size(); }

  /// Cell accessor (row, col); throws std::out_of_range when out of bounds.
  const std::string& at(std::size_t row, std::size_t col) const;

  /// Renders with space padding and a header separator line.
  void print(std::ostream& os) const;

  /// Renders as CSV (RFC-4180-ish; cells containing commas are quoted).
  void print_csv(std::ostream& os) const;

  /// Renders as JSON: {"headers": [...], "rows": [[...], ...]} — the
  /// machine-readable form the bench binaries export per PR so table
  /// trajectories can be diffed and plotted. `extra_members`, when
  /// non-empty, is a raw JSON fragment (e.g. "\"telemetry\": {...}")
  /// appended as additional top-level members.
  void print_json(std::ostream& os,
                  const std::string& extra_members = {}) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (no trailing-zero stripping).
std::string format_double(double value, int precision);

}  // namespace lnc::util
