// Lightweight hierarchical tracing: RAII spans recorded into per-thread
// buffers and emitted as Chrome trace-event JSON ("traceEvents" complete
// events), loadable in Perfetto / chrome://tracing.
//
// Design contract, shared by the whole obs layer:
//  - Observability is TIMING-ONLY. Nothing recorded here may feed back
//    into tallies, deterministic telemetry counters, or cache keys; a run
//    with tracing on is bit-identical (on the deterministic fields) to a
//    run with tracing off.
//  - Near-zero overhead when disabled: constructing a Span while the
//    recorder is off is a single relaxed atomic load and nothing else.
//  - Lock-free per worker when enabled: each thread appends to its own
//    buffer; the process-wide registry lock is taken only on a thread's
//    FIRST event (buffer registration) and when serializing.
//
// Serialization (to_json / write_file) must not race with recording:
// call it after worker threads have been joined, as lnc_sweep and
// lnc_launch do at process exit.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lnc::obs {

/// Microseconds since the process trace epoch (steady clock; first use
/// pins the epoch). All span timestamps share this basis.
std::uint64_t now_micros() noexcept;

class TraceRecorder {
 public:
  /// Per-thread event cap; beyond it events are counted as dropped
  /// instead of recorded, bounding trace memory on giga-trial runs.
  static constexpr std::size_t kMaxEventsPerThread = 1u << 18;

  static TraceRecorder& instance();

  void enable() noexcept { enabled_.store(true, std::memory_order_relaxed); }
  void disable() noexcept {
    enabled_.store(false, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Records a completed span. `name` must have static storage duration
  /// (it is kept by pointer). `args_json` is either empty or a JSON
  /// object body (e.g. "\"n\": 4096") spliced into the event's "args".
  void record(const char* name, std::uint64_t start_us, std::uint64_t dur_us,
              std::string args_json = {});

  /// Chrome trace-event JSON: {"traceEvents": [...]} with events sorted
  /// by start timestamp (stable across thread interleavings up to the
  /// recorded times themselves).
  std::string to_json() const;

  /// Atomically writes to_json() to `path`. Returns false and fills
  /// `*error` on failure.
  bool write_file(const std::string& path, std::string* error) const;

  /// write_file, reporting the outcome in one line on `report`: "trace:
  /// wrote PATH (N spans[, D dropped])", or "cannot write trace: WHY"
  /// and a false return — the --trace epilogue of lnc_sweep and
  /// lnc_launch.
  bool write_file_and_report(const std::string& path,
                             std::ostream& report) const;

  std::size_t event_count() const;
  std::size_t dropped_count() const;

  /// Clears recorded events (buffers stay registered so thread-local
  /// pointers remain valid). Test helper; not used on the hot path.
  void clear();

 private:
  struct Event {
    const char* name;
    std::uint64_t start_us;
    std::uint64_t dur_us;
    std::string args_json;
  };
  struct ThreadBuffer {
    std::uint32_t tid = 0;
    std::uint64_t dropped = 0;
    std::vector<Event> events;
  };

  TraceRecorder() = default;
  ThreadBuffer& local_buffer();

  std::atomic<bool> enabled_{false};
  mutable std::mutex registry_guard_;  // guards buffers_ (the vector only)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Helpers building one-key "args" bodies for Span: `span_args("n", 4096)`
/// yields `"n": 4096`; string values are JSON-escaped.
std::string span_args(const char* key, const std::string& value);
std::string span_args(const char* key, std::uint64_t value);

/// RAII span: captures the start time at construction, records on
/// destruction. When the recorder is disabled at construction the span is
/// inert (destruction does nothing), so a toggle mid-span records nothing
/// partial.
class Span {
 public:
  explicit Span(const char* name) noexcept
      : Span(name, std::string()) {}
  Span(const char* name, std::string args_json) noexcept
      : name_(name), armed_(TraceRecorder::instance().enabled()) {
    if (armed_) {
      args_json_ = std::move(args_json);
      start_us_ = now_micros();
    }
  }
  ~Span() {
    if (armed_) {
      const std::uint64_t end = now_micros();
      TraceRecorder::instance().record(name_, start_us_, end - start_us_,
                                       std::move(args_json_));
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Replaces the args the span will record, for values known only once
  /// the spanned work is done. Does nothing on an inert span.
  void set_args(std::string args_json) {
    if (armed_) args_json_ = std::move(args_json);
  }

 private:
  const char* name_;
  std::string args_json_;
  std::uint64_t start_us_ = 0;
  bool armed_;
};

}  // namespace lnc::obs
