// Tests for src/obs: histogram bucket boundaries, order-free merge
// bit-identity (mirroring the ExactSum tests the value tallies rely on),
// registry JSON round trips, trace well-formedness, and progress lines.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "scenario/spec_json.h"

namespace lnc::obs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(Histogram, BucketBoundariesAtPowersOfTwo) {
  // Zero, negatives, and NaN land in bucket 0; +inf in the top bucket.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(-1.0), 0);
  EXPECT_EQ(Histogram::bucket_index(-kInf), 0);
  EXPECT_EQ(Histogram::bucket_index(kNaN), 0);
  EXPECT_EQ(Histogram::bucket_index(kInf), Histogram::kBucketCount - 1);

  // 2^e sits at the INCLUSIVE lower edge of its bucket for every covered
  // exponent; the value just below falls one bucket down.
  for (int e = Histogram::kMinExponent; e <= Histogram::kMaxExponent; ++e) {
    const double value = std::ldexp(1.0, e);
    const int index = 2 + (e - Histogram::kMinExponent);
    EXPECT_EQ(Histogram::bucket_index(value), index) << "e=" << e;
    EXPECT_EQ(Histogram::bucket_index(std::nextafter(value, 0.0)), index - 1)
        << "e=" << e;
    EXPECT_EQ(Histogram::bucket_lower_bound(index), value) << "e=" << e;
  }

  // Below 2^-32 is the underflow bucket; at/above 2^31 the top bucket
  // absorbs everything.
  EXPECT_EQ(Histogram::bucket_index(std::ldexp(1.0, -33)), 1);
  EXPECT_EQ(Histogram::bucket_index(std::ldexp(1.0, 31)),
            Histogram::kBucketCount - 1);
  EXPECT_EQ(Histogram::bucket_index(std::ldexp(1.0, 40)),
            Histogram::kBucketCount - 1);
  EXPECT_EQ(Histogram::bucket_lower_bound(1), 0.0);
  EXPECT_EQ(Histogram::bucket_lower_bound(0), -kInf);
}

TEST(Histogram, NonFiniteObservationsAreCountedButExcludedFromSum) {
  Histogram h;
  h.observe(1.5);
  h.observe(kNaN);
  h.observe(kInf);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1.5);  // ExactSum requires finite input
  EXPECT_EQ(h.min(), 1.5);
  EXPECT_EQ(h.max(), 1.5);
  EXPECT_EQ(h.bucket(0), 1u);                            // NaN
  EXPECT_EQ(h.bucket(Histogram::kBucketCount - 1), 1u);  // +inf
}

// Deterministic pseudo-values spanning many buckets (no RNG needed).
std::vector<double> test_values(int count) {
  std::vector<double> values;
  values.reserve(count);
  for (int i = 0; i < count; ++i) {
    values.push_back(std::ldexp(1.0 + 0.001 * i, (i * 7) % 40 - 20));
  }
  return values;
}

TEST(Histogram, MergeIsOrderFreeBitForBit) {
  // The same contract ExactSum gives the value tallies: any partition of
  // the observation multiset, merged in any order, yields the identical
  // histogram — including the exact-sum hex words.
  const std::vector<double> values = test_values(257);
  Histogram sequential;
  for (const double v : values) sequential.observe(v);

  for (const int parts : {2, 3, 7}) {
    std::vector<Histogram> shards(parts);
    for (std::size_t i = 0; i < values.size(); ++i) {
      shards[i % parts].observe(values[i]);
    }
    // Forward merge order.
    Histogram forward;
    for (const Histogram& shard : shards) forward.merge(shard);
    // Reverse merge order.
    Histogram reverse;
    for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
      reverse.merge(*it);
    }
    EXPECT_EQ(forward.sum_hex(), sequential.sum_hex()) << parts;
    EXPECT_EQ(reverse.sum_hex(), sequential.sum_hex()) << parts;
    EXPECT_EQ(forward.to_json(), sequential.to_json()) << parts;
    EXPECT_EQ(reverse.to_json(), sequential.to_json()) << parts;
  }
}

TEST(Histogram, JsonRoundTripPreservesEveryField) {
  Histogram h;
  for (const double v : test_values(50)) h.observe(v);
  const std::string json = h.to_json();
  std::vector<std::string> warnings;
  const Histogram back =
      Histogram::from_json(scenario::Json::parse(json), "test", &warnings);
  EXPECT_TRUE(warnings.empty());
  EXPECT_EQ(back.to_json(), json);
  EXPECT_EQ(back.sum_hex(), h.sum_hex());
  EXPECT_EQ(back.count(), h.count());
}

TEST(Histogram, UnknownJsonKeysWarnInsteadOfFailing) {
  std::vector<std::string> warnings;
  const Histogram h = Histogram::from_json(
      scenario::Json::parse(
          "{\"count\": 1, \"exact_sum\": \"0\", \"buckets\": [[2, 1]], "
          "\"speculative\": true}"),
      "test-histogram", &warnings);
  EXPECT_EQ(h.count(), 1u);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("speculative"), std::string::npos);
  EXPECT_NE(warnings[0].find("test-histogram"), std::string::npos);
}

TEST(MetricsRegistry, MergeSumsCountersMaxesGaugesMergesHistograms) {
  MetricsRegistry a;
  a.add_counter("events", 3);
  a.set_gauge("peak_bytes", 100.0);
  a.observe("latency", 0.25);
  MetricsRegistry b;
  b.add_counter("events", 4);
  b.set_gauge("peak_bytes", 50.0);
  b.observe("latency", 0.5);
  b.observe("other", 1.0);

  a.merge(b);
  EXPECT_EQ(a.counters().at("events"), 7u);
  EXPECT_EQ(a.gauges().at("peak_bytes"), 100.0);
  EXPECT_EQ(a.histograms().at("latency").count(), 2u);
  EXPECT_EQ(a.histograms().at("other").count(), 1u);
}

TEST(MetricsRegistry, JsonRoundTripAndUnknownKeyWarning) {
  MetricsRegistry registry;
  registry.add_counter("batches", 12);
  registry.set_gauge("footprint", 4096.0);
  for (const double v : test_values(20)) registry.observe("latency", v);

  const std::string json = registry.to_json();
  std::vector<std::string> warnings;
  const MetricsRegistry back = MetricsRegistry::from_json(
      scenario::Json::parse(json), "metrics", &warnings);
  EXPECT_TRUE(warnings.empty());
  EXPECT_EQ(back.to_json(), json);

  // An unknown section warns (the stale-file guard sweep JSON relies on)
  // and everything recognized still loads.
  const MetricsRegistry partial = MetricsRegistry::from_json(
      scenario::Json::parse(
          "{\"counters\": {\"batches\": 1}, \"futures\": {}}"),
      "metrics", &warnings);
  EXPECT_EQ(partial.counters().at("batches"), 1u);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("futures"), std::string::npos);
}

TEST(MetricsRegistry, EmptyAndClear) {
  MetricsRegistry registry;
  EXPECT_TRUE(registry.empty());
  registry.observe("x", 1.0);
  EXPECT_FALSE(registry.empty());
  registry.clear();
  EXPECT_TRUE(registry.empty());
}

TEST(Trace, DisabledSpansRecordNothing) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.disable();
  recorder.clear();
  { const Span span("never"); }
  EXPECT_EQ(recorder.event_count(), 0u);
}

TEST(Trace, WriteFileAndReportPrintsOneLine) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.clear();
  recorder.enable();
  { const Span span("one"); }
  recorder.disable();
  const std::string path = ::testing::TempDir() + "lnc-obs-trace.json";
  std::ostringstream report;
  EXPECT_TRUE(recorder.write_file_and_report(path, report));
  EXPECT_EQ(report.str(), "trace: wrote " + path + " (1 spans)\n");

  std::ostringstream failure;
  EXPECT_FALSE(
      recorder.write_file_and_report("/no/such/dir/trace.json", failure));
  EXPECT_EQ(failure.str().rfind("cannot write trace: ", 0), 0u)
      << failure.str();
  recorder.clear();
}

TEST(Trace, MultiThreadedSpansEmitWellFormedChromeJson) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.clear();
  recorder.enable();
  {
    const Span outer("outer", span_args("n", std::uint64_t{4096}));
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([] {
        for (int i = 0; i < 8; ++i) {
          const Span inner("inner");
          const Span leaf("leaf", span_args("label", std::string("x\"y")));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  recorder.disable();
  // 1 outer + 4*8 inner + 4*8 leaf.
  EXPECT_EQ(recorder.event_count(), 65u);
  EXPECT_EQ(recorder.dropped_count(), 0u);

  const scenario::Json root = scenario::Json::parse(recorder.to_json());
  const auto& events = root.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 65u);
  std::uint64_t last_ts = 0;
  for (const scenario::Json& event : events) {
    EXPECT_EQ(event.at("ph").as_string(), "X");
    const std::uint64_t ts = event.at("ts").as_uint64();
    EXPECT_GE(ts, last_ts);  // sorted by start time
    last_ts = ts;
    EXPECT_GE(event.at("dur").as_uint64(), 0u);
    EXPECT_EQ(event.at("pid").as_uint64(), 1u);
    const std::string& name = event.at("name").as_string();
    EXPECT_TRUE(name == "outer" || name == "inner" || name == "leaf")
        << name;
  }
  recorder.clear();
}

TEST(Progress, FinalLineReportsTotalsAndCompletion) {
  std::ostringstream os;
  {
    Progress progress("test-unit", 10, "trials", &os);
    for (int i = 0; i < 10; ++i) progress.tick(1);
    progress.finish();
    EXPECT_EQ(progress.done(), 10u);
  }
  const std::string out = os.str();
  EXPECT_NE(out.find("progress[test-unit]:"), std::string::npos) << out;
  EXPECT_NE(out.find("10/10 trials"), std::string::npos) << out;
  EXPECT_NE(out.find("done in"), std::string::npos) << out;
}

TEST(Progress, IdleChannelStaysSilent) {
  // An unknown-total channel that never ticks (e.g. the node heartbeat
  // on a materialized run) must not print a spurious final line.
  std::ostringstream os;
  {
    Progress progress("idle", 0, "nodes", &os);
    progress.finish();
  }
  EXPECT_TRUE(os.str().empty()) << os.str();
}

TEST(WorkerMetrics, ScopeInstallsAndRestores) {
  EXPECT_EQ(worker_metrics(), nullptr);
  MetricsRegistry outer_registry;
  {
    WorkerMetricsScope outer(&outer_registry);
    EXPECT_EQ(worker_metrics(), &outer_registry);
    MetricsRegistry inner_registry;
    {
      WorkerMetricsScope inner(&inner_registry);
      EXPECT_EQ(worker_metrics(), &inner_registry);
    }
    EXPECT_EQ(worker_metrics(), &outer_registry);
  }
  EXPECT_EQ(worker_metrics(), nullptr);
}

}  // namespace
}  // namespace lnc::obs
