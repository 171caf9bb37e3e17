#include "obs/metrics.h"

#include <atomic>
#include <cmath>
#include <initializer_list>
#include <sstream>
#include <stdexcept>

#include "scenario/spec_json.h"

namespace lnc::obs {
namespace {

/// Full round-trip precision, matching the sweep JSON convention.
std::string format_double(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

void warn_unknown_keys(const scenario::Json& json,
                       std::initializer_list<const char*> known,
                       const std::string& where,
                       std::vector<std::string>* warnings) {
  if (warnings == nullptr) return;
  for (const auto& [key, value] : json.as_object()) {
    bool found = false;
    for (const char* candidate : known) {
      if (key == candidate) {
        found = true;
        break;
      }
    }
    if (!found) {
      warnings->push_back(where + ": unknown key '" + key + "' ignored");
    }
  }
}

std::atomic<bool> g_metrics_enabled{false};
thread_local MetricsRegistry* tl_worker_metrics = nullptr;

}  // namespace

int Histogram::bucket_index(double value) noexcept {
  if (!(value > 0.0)) return 0;  // nonpositive, and NaN via the negation
  if (std::isinf(value)) return kBucketCount - 1;
  const int exponent = std::ilogb(value);
  if (exponent < kMinExponent) return 1;
  if (exponent > kMaxExponent) return kBucketCount - 1;
  return 2 + (exponent - kMinExponent);
}

double Histogram::bucket_lower_bound(int index) noexcept {
  if (index <= 0) return -std::numeric_limits<double>::infinity();
  if (index == 1) return 0.0;
  return std::ldexp(1.0, index - 2 + kMinExponent);
}

void Histogram::observe(double value) noexcept {
  ++count_;
  ++buckets_[static_cast<std::size_t>(bucket_index(value))];
  if (!std::isfinite(value)) return;  // ExactSum requires finite input
  sum_.add(value);
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

void Histogram::merge(const Histogram& other) noexcept {
  sum_.merge(other.sum_);
  count_ += other.count_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  for (int i = 0; i < kBucketCount; ++i) {
    buckets_[static_cast<std::size_t>(i)] +=
        other.buckets_[static_cast<std::size_t>(i)];
  }
}

std::string Histogram::to_json() const {
  std::string out = "{\"count\": ";
  out.append(std::to_string(count_)).append(", \"sum\": ");
  out.append(format_double(sum_.value())).append(", \"exact_sum\": \"");
  out.append(sum_.to_hex()).append("\"");
  if (std::isfinite(min_)) {
    out.append(", \"min\": ").append(format_double(min_));
  }
  if (std::isfinite(max_)) {
    out.append(", \"max\": ").append(format_double(max_));
  }
  out += ", \"buckets\": [";
  bool first = true;
  for (int i = 0; i < kBucketCount; ++i) {
    const std::uint64_t n = buckets_[static_cast<std::size_t>(i)];
    if (n == 0) continue;
    if (!first) out += ", ";
    first = false;
    out.append("[").append(std::to_string(i)).append(", ");
    out.append(std::to_string(n)).append("]");
  }
  out += "]}";
  return out;
}

Histogram Histogram::from_json(const scenario::Json& json,
                               const std::string& where,
                               std::vector<std::string>* warnings) {
  warn_unknown_keys(json,
                    {"count", "sum", "exact_sum", "min", "max", "buckets"},
                    where, warnings);
  Histogram h;
  if (json.has("count")) h.count_ = json.at("count").as_uint64();
  // "sum" is presentational (the rounded double); the exact accumulator
  // is authoritative for merging.
  if (json.has("exact_sum")) {
    h.sum_ = stats::ExactSum::from_hex(json.at("exact_sum").as_string());
  }
  if (json.has("min")) h.min_ = json.at("min").as_number();
  if (json.has("max")) h.max_ = json.at("max").as_number();
  if (json.has("buckets")) {
    for (const scenario::Json& pair : json.at("buckets").as_array()) {
      const auto& cells = pair.as_array();
      if (cells.size() != 2) {
        throw std::runtime_error(where +
                                 ": histogram bucket entries must be "
                                 "[index, count] pairs");
      }
      const std::uint64_t index = cells[0].as_uint64();
      if (index >= static_cast<std::uint64_t>(kBucketCount)) {
        throw std::runtime_error(where + ": histogram bucket index " +
                                 std::to_string(index) + " out of range");
      }
      h.buckets_[static_cast<std::size_t>(index)] = cells[1].as_uint64();
    }
  }
  return h;
}

void MetricsRegistry::add_counter(const std::string& name,
                                  std::uint64_t delta) {
  counters_[name] += delta;
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  gauges_[name] = value;
}

void MetricsRegistry::observe(const std::string& name, double value) {
  histograms_[name].observe(value);
}

bool MetricsRegistry::empty() const noexcept {
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) {
    counters_[name] += value;
  }
  for (const auto& [name, value] : other.gauges_) {
    auto [it, inserted] = gauges_.emplace(name, value);
    if (!inserted && value > it->second) it->second = value;
  }
  for (const auto& [name, hist] : other.histograms_) {
    histograms_[name].merge(hist);
  }
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{";
  bool first_section = true;
  auto open_section = [&](const char* name) {
    if (!first_section) out += ", ";
    first_section = false;
    out += "\"";
    out += name;
    out += "\": {";
  };
  if (!counters_.empty()) {
    open_section("counters");
    bool first = true;
    for (const auto& [name, value] : counters_) {
      if (!first) out += ", ";
      first = false;
      out += "\"" + name + "\": " + std::to_string(value);
    }
    out += "}";
  }
  if (!gauges_.empty()) {
    open_section("gauges");
    bool first = true;
    for (const auto& [name, value] : gauges_) {
      if (!first) out += ", ";
      first = false;
      out += "\"" + name + "\": " + format_double(value);
    }
    out += "}";
  }
  if (!histograms_.empty()) {
    open_section("histograms");
    bool first = true;
    for (const auto& [name, hist] : histograms_) {
      if (!first) out += ", ";
      first = false;
      out += "\"" + name + "\": " + hist.to_json();
    }
    out += "}";
  }
  out += "}";
  return out;
}

MetricsRegistry MetricsRegistry::from_json(const scenario::Json& json,
                                           const std::string& where,
                                           std::vector<std::string>* warnings) {
  warn_unknown_keys(json, {"counters", "gauges", "histograms"}, where,
                    warnings);
  MetricsRegistry registry;
  if (json.has("counters")) {
    for (const auto& [name, value] : json.at("counters").as_object()) {
      registry.counters_[name] = value.as_uint64();
    }
  }
  if (json.has("gauges")) {
    for (const auto& [name, value] : json.at("gauges").as_object()) {
      registry.gauges_[name] = value.as_number();
    }
  }
  if (json.has("histograms")) {
    for (const auto& [name, value] : json.at("histograms").as_object()) {
      registry.histograms_[name] = Histogram::from_json(
          value, where + ".histograms." + name, warnings);
    }
  }
  return registry;
}

bool metrics_enabled() noexcept {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool on) noexcept {
  g_metrics_enabled.store(on, std::memory_order_relaxed);
}

MetricsRegistry* worker_metrics() noexcept { return tl_worker_metrics; }

WorkerMetricsScope::WorkerMetricsScope(MetricsRegistry* registry) noexcept
    : previous_(tl_worker_metrics) {
  tl_worker_metrics = registry;
}

WorkerMetricsScope::~WorkerMetricsScope() { tl_worker_metrics = previous_; }

}  // namespace lnc::obs
