#include "util/table.h"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/assert.h"
#include "util/string_util.h"

namespace lnc::util {

std::string format_double(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  LNC_EXPECTS(!headers_.empty());
}

Table& Table::new_row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::add_cell(std::string value) {
  LNC_EXPECTS(!rows_.empty());
  LNC_EXPECTS(rows_.back().size() < headers_.size());
  rows_.back().push_back(std::move(value));
  return *this;
}

Table& Table::add_cell(double value, int precision) {
  return add_cell(format_double(value, precision));
}

Table& Table::add_cell(std::uint64_t value) {
  return add_cell(std::to_string(value));
}

Table& Table::add_cell(int value) { return add_cell(std::to_string(value)); }

const std::string& Table::at(std::size_t row, std::size_t col) const {
  if (row >= rows_.size() || col >= rows_[row].size()) {
    throw std::out_of_range("Table::at out of range");
  }
  return rows_[row][col];
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      os << "  " << std::left << std::setw(static_cast<int>(widths[c]))
         << cell;
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
}

void Table::print_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) os << ',';
      const std::string& cell = cells[c];
      if (cell.find(',') != std::string::npos ||
          cell.find('"') != std::string::npos) {
        os << '"';
        for (char ch : cell) {
          if (ch == '"') os << '"';
          os << ch;
        }
        os << '"';
      } else {
        os << cell;
      }
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
}

void Table::print_json(std::ostream& os,
                       const std::string& extra_members) const {
  auto emit_string = [&](const std::string& s) {
    os << '"' << json_escape(s) << '"';
  };
  auto emit_array = [&](const std::vector<std::string>& cells) {
    os << '[';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c > 0) os << ", ";
      emit_string(cells[c]);
    }
    os << ']';
  };
  os << "{\"headers\": ";
  emit_array(headers_);
  os << ", \"rows\": [";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (r > 0) os << ", ";
    emit_array(rows_[r]);
  }
  os << "]";
  if (!extra_members.empty()) os << ", " << extra_members;
  os << "}\n";
}

}  // namespace lnc::util
