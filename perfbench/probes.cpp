// Layer probes for the traced run: each layer's public kernel timed from
// outside on a fixed input, so a per-layer number can be compared across
// commits independently of any workload's mix. Every probe checks its
// output (a probe that computes the wrong thing fast must not read as an
// improvement), and each timed call sits in an obs::Span named
// <layer>.<function>.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "common.h"
#include "graph/ball.h"
#include "graph/generators.h"
#include "graph/implicit.h"
#include "obs/trace.h"
#include "rand/philox.h"
#include "rand/splitmix.h"
#include "scenario/presets.h"
#include "serve/cache_key.h"
#include "stats/exact_sum.h"
#include "stats/threadpool.h"

namespace perfbench {
namespace {

using namespace lnc;

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

void probe_philox(const Options& options, Report& report) {
  constexpr std::size_t kDraws = 1u << 20;
  rand::SplitMix64 gen(derive_seed(options.seed, 0x5EED));
  std::vector<std::uint64_t> hi(kDraws), lo(kDraws), out(kDraws);
  for (std::size_t i = 0; i < kDraws; ++i) {
    hi[i] = gen.next() & 0xFFFFF;
    lo[i] = i;
  }
  const std::uint64_t key = gen.next();
  std::vector<double> ns;
  for (int rep = 0; rep < 9; ++rep) {
    const obs::Span span("rand.philox_u64_batch");
    const double start = now_seconds();
    rand::philox_u64_batch(key, hi.data(), lo.data(), out.data(), kDraws);
    ns.push_back((now_seconds() - start) * 1e9 / kDraws);
  }
  bool ok = true;
  for (std::size_t i = 0; i < kDraws; i += 4099) {
    ok = ok && out[i] == rand::philox_u64(key, hi[i], lo[i]);
  }
  report.op(ok, "philox_u64_batch disagrees with philox_u64");
  report.set_layer("rand.philox_ns_per_draw", median(ns), "probe");
}

/// ns per BallView::collect over `centers` spread across the topology.
template <typename Topo>
double time_collect(const Topo& topology, graph::NodeId n, int radius,
                    Report& report) {
  constexpr graph::NodeId kCenters = 1u << 14;
  graph::BallView view;
  graph::BallScratch scratch;
  std::vector<double> ns;
  std::uint64_t members = 0;
  for (int rep = 0; rep < 5; ++rep) {
    members = 0;
    const obs::Span span("graph.collect");
    const double start = now_seconds();
    for (graph::NodeId i = 0; i < kCenters; ++i) {
      view.collect(topology, (i * 15u) % n, radius, scratch);
      members += view.size();
    }
    ns.push_back((now_seconds() - start) * 1e9 / kCenters);
  }
  report.op(members == static_cast<std::uint64_t>(kCenters) * (2 * radius + 1),
            "a cycle ball of radius r must hold 2r + 1 nodes");
  return median(ns);
}

void probe_collect(Report& report) {
  constexpr graph::NodeId kNodes = 1u << 18;
  const graph::Graph csr = graph::cycle(kNodes);
  const auto implicit = graph::implicit_cycle(kNodes);
  for (const int radius : {1, 4}) {
    const std::string suffix = ".r" + std::to_string(radius);
    report.set_layer("graph.collect_csr_ns" + suffix,
                     time_collect(csr, kNodes, radius, report), "probe");
    report.set_layer("graph.collect_implicit_ns" + suffix,
                     time_collect(*implicit, kNodes, radius, report), "probe");
  }
}

void probe_pool(Report& report) {
  for (const unsigned workers : {2u, 4u}) {
    const stats::ThreadPool pool(workers);
    std::vector<double> us;
    for (int rep = 0; rep < 200; ++rep) {
      const obs::Span span("stats.parallel_for_workers");
      const double start = now_seconds();
      pool.parallel_for_workers(workers, [](unsigned, std::uint64_t) {});
      us.push_back((now_seconds() - start) * 1e6);
    }
    report.set_layer("stats.pool_dispatch_us.w" + std::to_string(workers),
                     median(us), "probe");
  }
}

void probe_exact_sum(const Options& options, Report& report) {
  constexpr std::size_t kValues = 1u << 20;
  rand::SplitMix64 gen(derive_seed(options.seed, 0xE5));
  std::vector<double> values(kValues);
  for (double& value : values) {
    value = static_cast<double>(gen.next() >> 11) * 0x1p-40 - 4096.0;
  }
  std::vector<double> ns;
  stats::ExactSum forward;
  for (int rep = 0; rep < 5; ++rep) {
    forward = stats::ExactSum();
    const obs::Span span("stats.exact_sum_add");
    const double start = now_seconds();
    for (const double value : values) forward.add(value);
    ns.push_back((now_seconds() - start) * 1e9 / kValues);
  }
  stats::ExactSum backward;
  for (std::size_t i = kValues; i-- > 0;) backward.add(values[i]);
  report.op(forward == backward, "ExactSum must not depend on the order");
  report.set_layer("stats.exact_sum_add_ns", median(ns), "probe");
}

void probe_cache_key(Report& report) {
  const std::vector<scenario::ScenarioSpec>& specs = scenario::preset_scenarios();
  std::vector<double> us;
  for (int rep = 0; rep < 20; ++rep) {
    for (const scenario::ScenarioSpec& spec : specs) {
      const obs::Span span("serve.cache_key");
      const double start = now_seconds();
      const serve::CacheKey key = serve::cache_key(spec);
      us.push_back((now_seconds() - start) * 1e6);
      if (rep == 0) report.op(key.size() == 64, "cache key is not 64 hex");
    }
  }
  report.set_layer("serve.cache_key_us", median(us), "probe");
}

}  // namespace

void layer_probes(const Options& options, Report& report) {
  probe_philox(options, report);
  probe_collect(report);
  probe_pool(report);
  probe_exact_sum(options, report);
  probe_cache_key(report);
}

}  // namespace perfbench
