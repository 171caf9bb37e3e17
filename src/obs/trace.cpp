#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>

#include "util/file_util.h"

namespace lnc::obs {
namespace {

std::chrono::steady_clock::time_point trace_epoch() noexcept {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

/// JSON string escaping for span args (names are static identifiers and
/// never need escaping, but args may carry scenario names).
void append_escaped(std::string& out, const std::string& text) {
  for (const char ch : text) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
}

}  // namespace

std::uint64_t now_micros() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - trace_epoch())
          .count());
}

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder recorder;
  // Pin the epoch before any span can capture a timestamp, so the first
  // recorded ts is small and nonnegative.
  (void)trace_epoch();
  return recorder;
}

TraceRecorder::ThreadBuffer& TraceRecorder::local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> guard(registry_guard_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->tid = static_cast<std::uint32_t>(buffers_.size());
    buffer = buffers_.back().get();
  }
  return *buffer;
}

void TraceRecorder::record(const char* name, std::uint64_t start_us,
                           std::uint64_t dur_us, std::string args_json) {
  ThreadBuffer& buffer = local_buffer();
  if (buffer.events.size() >= kMaxEventsPerThread) {
    ++buffer.dropped;
    return;
  }
  buffer.events.push_back(
      Event{name, start_us, dur_us, std::move(args_json)});
}

std::string TraceRecorder::to_json() const {
  struct Flat {
    const Event* event;
    std::uint32_t tid;
  };
  std::vector<Flat> flat;
  std::uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> guard(registry_guard_);
    for (const auto& buffer : buffers_) {
      dropped += buffer->dropped;
      for (const Event& event : buffer->events) {
        flat.push_back(Flat{&event, buffer->tid});
      }
    }
  }
  // Sort by start time (longer spans first on ties, so parents precede
  // their children): monotonic "ts" across the file, and a stable order
  // for the well-formedness checker.
  std::stable_sort(flat.begin(), flat.end(),
                   [](const Flat& a, const Flat& b) {
                     if (a.event->start_us != b.event->start_us) {
                       return a.event->start_us < b.event->start_us;
                     }
                     return a.event->dur_us > b.event->dur_us;
                   });
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const Flat& item : flat) {
    if (!first) out += ",";
    first = false;
    out += "\n  {\"name\": \"";
    out += item.event->name;
    out += "\", \"ph\": \"X\", \"ts\": ";
    out += std::to_string(item.event->start_us);
    out += ", \"dur\": ";
    out += std::to_string(item.event->dur_us);
    out += ", \"pid\": 1, \"tid\": ";
    out += std::to_string(item.tid);
    if (!item.event->args_json.empty()) {
      out += ", \"args\": {";
      out += item.event->args_json;
      out += "}";
    }
    out += "}";
  }
  if (dropped > 0) {
    // Buffer saturation is itself observable: a zero-length marker event
    // carrying the drop count, rather than a silently truncated file.
    if (!first) out += ",";
    out += "\n  {\"name\": \"trace-buffer-saturated\", \"ph\": \"X\", "
           "\"ts\": ";
    out += std::to_string(now_micros());
    out += ", \"dur\": 0, \"pid\": 1, \"tid\": 1, \"args\": {\"dropped\": ";
    out += std::to_string(dropped);
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

bool TraceRecorder::write_file(const std::string& path,
                               std::string* error) const {
  const std::string problem = util::write_file_atomic(path, to_json());
  if (!problem.empty()) {
    if (error != nullptr) *error = problem;
    return false;
  }
  return true;
}

bool TraceRecorder::write_file_and_report(const std::string& path,
                                          std::ostream& report) const {
  std::string error;
  if (!write_file(path, &error)) {
    report << "cannot write trace: " << error << "\n";
    return false;
  }
  report << "trace: wrote " << path << " (" << event_count() << " spans";
  if (dropped_count() > 0) report << ", " << dropped_count() << " dropped";
  report << ")\n";
  return true;
}

std::size_t TraceRecorder::event_count() const {
  std::lock_guard<std::mutex> guard(registry_guard_);
  std::size_t count = 0;
  for (const auto& buffer : buffers_) count += buffer->events.size();
  return count;
}

std::size_t TraceRecorder::dropped_count() const {
  std::lock_guard<std::mutex> guard(registry_guard_);
  std::size_t count = 0;
  for (const auto& buffer : buffers_) {
    count += static_cast<std::size_t>(buffer->dropped);
  }
  return count;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> guard(registry_guard_);
  for (const auto& buffer : buffers_) {
    buffer->events.clear();
    buffer->dropped = 0;
  }
}

std::string span_args(const char* key, const std::string& value) {
  std::string out = "\"";
  out += key;
  out += "\": \"";
  append_escaped(out, value);
  out += "\"";
  return out;
}

std::string span_args(const char* key, std::uint64_t value) {
  std::string out = "\"";
  out += key;
  out += "\": ";
  out += std::to_string(value);
  return out;
}

}  // namespace lnc::obs
