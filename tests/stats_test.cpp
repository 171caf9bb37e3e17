// Tests for src/stats: thread pool, Monte-Carlo seeding and estimator
// epilogues, exact sums, summaries.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rand/splitmix.h"
#include "stats/exact_sum.h"
#include "stats/montecarlo.h"
#include "stats/summary.h"
#include "stats/threadpool.h"

namespace lnc::stats {
namespace {

TEST(ExactSum, SingleAdditionRoundTripsTheDouble) {
  for (const double value :
       {0.0, 1.0, -1.0, 0.1, -0.1, 1e-300, -1e300, 4.9406564584124654e-324,
        1.7976931348623157e308, 3.141592653589793, 1.0 / 3.0}) {
    ExactSum sum;
    sum.add(value);
    EXPECT_EQ(sum.value(), value) << value;
  }
}

TEST(ExactSum, CancellationIsExact) {
  // Naive double accumulation of 1e100 + 1 - 1e100 collapses to 0; the
  // superaccumulator keeps the 1 alive.
  ExactSum sum;
  sum.add(1e100);
  sum.add(1.0);
  sum.add(-1e100);
  EXPECT_EQ(sum.value(), 1.0);
  EXPECT_FALSE(sum.is_zero());
  sum.add(-1.0);
  EXPECT_TRUE(sum.is_zero());
  EXPECT_EQ(sum.value(), 0.0);
}

TEST(ExactSum, OrderAndPartitionIndependent) {
  // Any addition order and any shard partition represent the same exact
  // value — word-for-word equal accumulators, identical hex, identical
  // rounded double. (Naive double sums would disagree here.)
  rand::SplitMix64 rng(77);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) {
    const double magnitude = std::ldexp(
        static_cast<double>(rng.next() >> 11),
        static_cast<int>(rng.next_below(600)) - 300);
    values.push_back((rng.next() & 1) != 0 ? -magnitude : magnitude);
  }
  ExactSum forward;
  for (const double v : values) forward.add(v);
  ExactSum backward;
  for (auto it = values.rbegin(); it != values.rend(); ++it) {
    backward.add(*it);
  }
  ExactSum sharded;
  ExactSum shard_a;
  ExactSum shard_b;
  for (std::size_t i = 0; i < values.size(); ++i) {
    (i < 127 ? shard_a : shard_b).add(values[i]);
  }
  sharded.merge(shard_a);
  sharded.merge(shard_b);
  EXPECT_TRUE(forward == backward);
  EXPECT_TRUE(forward == sharded);
  EXPECT_EQ(forward.to_hex(), sharded.to_hex());
  EXPECT_EQ(forward.value(), backward.value());
  EXPECT_EQ(forward.value(), sharded.value());
}

TEST(ExactSum, HexRoundTripIsCanonical) {
  rand::SplitMix64 rng(91);
  for (int i = 0; i < 50; ++i) {
    ExactSum sum;
    for (int k = 0; k < 7; ++k) {
      const double magnitude =
          static_cast<double>(rng.next() >> 12) / 1024.0;
      sum.add((rng.next() & 1) != 0 ? -magnitude : magnitude);
    }
    const ExactSum parsed = ExactSum::from_hex(sum.to_hex());
    EXPECT_TRUE(parsed == sum);
    EXPECT_EQ(parsed.to_hex(), sum.to_hex());
    EXPECT_EQ(parsed.value(), sum.value());
  }
  EXPECT_EQ(ExactSum().to_hex(), "0");
  EXPECT_TRUE(ExactSum::from_hex("0").is_zero());
  EXPECT_THROW(ExactSum::from_hex(""), std::runtime_error);
  EXPECT_THROW(ExactSum::from_hex("xyz"), std::runtime_error);
}

TEST(ExactSum, IntegerSumsAreExact) {
  ExactSum sum;
  std::uint64_t expected = 0;
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    sum.add(static_cast<double>(i));
    expected += i;
  }
  EXPECT_EQ(sum.value(), static_cast<double>(expected));
}

TEST(MonteCarlo, FinalizeMeanExactMatchesTwoPassOnBenignData) {
  // On well-conditioned data the sum-of-squares formula agrees with the
  // two-pass stddev to floating-point accuracy.
  std::vector<double> values;
  ExactSum sum;
  ExactSum sum_sq;
  rand::SplitMix64 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = static_cast<double>(rng.next_below(1000)) / 10.0;
    values.push_back(v);
    sum.add(v);
    sum_sq.add(v * v);
  }
  const MeanEstimate two_pass = finalize_mean(values);
  const MeanEstimate exact = finalize_mean_exact(sum, sum_sq, values.size());
  EXPECT_EQ(exact.trials, two_pass.trials);
  EXPECT_NEAR(exact.mean, two_pass.mean, 1e-12);
  EXPECT_NEAR(exact.stddev, two_pass.stddev, 1e-9);
}

TEST(ThreadPool, CoversTheFullRange) {
  const ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_workers(1000, [&](unsigned worker, std::uint64_t i) {
    EXPECT_LT(worker, pool.thread_count());
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroAndOneCount) {
  const ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for_workers(0, [&](unsigned, std::uint64_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for_workers(1, [&](unsigned, std::uint64_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

// The `Threads:` line of /proc/self/status: the kernel's count of this
// process's threads.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  ADD_FAILURE() << "no Threads: line in /proc/self/status";
  return -1;
}

// The thread count once it has held still for 20 ms (up to 2 s): a joined
// thread leaves the kernel's count a moment after join returns.
int settled_threads() {
  int last = process_threads();
  for (int tries = 0; tries < 100; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const int now = process_threads();
    if (now == last) return now;
    last = now;
  }
  return last;
}

TEST(ThreadPool, DispatchesRunOnItsOwnWorkerThreads) {
  // 200 dispatches run on exactly thread_count kernel threads, worker w
  // always on the same one, and never on the caller's: the pool keeps
  // its workers, and the caller only waits.
  const ThreadPool pool(4);
  std::mutex mutex;
  std::set<pid_t> tids;
  std::vector<std::set<pid_t>> tids_of_worker(pool.thread_count());
  for (int dispatch = 0; dispatch < 200; ++dispatch) {
    pool.parallel_for_workers(16, [&](unsigned worker, std::uint64_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      const std::lock_guard<std::mutex> guard(mutex);
      tids.insert(::gettid());
      tids_of_worker[worker].insert(::gettid());
    });
  }
  EXPECT_EQ(tids.size(), pool.thread_count());
  EXPECT_EQ(tids.count(::gettid()), 0u);
  for (const std::set<pid_t>& of_worker : tids_of_worker) {
    EXPECT_EQ(of_worker.size(), 1u);
  }
}

TEST(ThreadPool, StartsNoThreadUntilADispatchNeedsOne) {
  const int before = settled_threads();
  {
    const ThreadPool pool(4);
    EXPECT_EQ(process_threads(), before);
    // Inline calls (one index) need no worker either.
    pool.parallel_for_workers(1, [](unsigned, std::uint64_t) {});
    EXPECT_EQ(process_threads(), before);
    // A two-index range starts two workers, a four-index one all four,
    // and they stay after the dispatch.
    pool.parallel_for_workers(2, [](unsigned, std::uint64_t) {});
    EXPECT_EQ(process_threads(), before + 2);
    pool.parallel_for_workers(100, [](unsigned, std::uint64_t) {});
    EXPECT_EQ(process_threads(), before + 4);
    pool.parallel_for_workers(100, [](unsigned, std::uint64_t) {});
    EXPECT_EQ(process_threads(), before + 4);
  }
  EXPECT_EQ(settled_threads(), before);
}

TEST(ThreadPool, ConcurrentCallersEachCoverTheirRange) {
  // lnc_serve's connection threads share one pool: four external threads
  // dispatch on it at once, and each covers its own range exactly once.
  const ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr std::uint64_t kCount = 1000;
  std::vector<std::vector<std::atomic<int>>> hits;
  for (int c = 0; c < kCallers; ++c) hits.emplace_back(kCount);
  {
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&pool, &hits, c] {
        for (int rep = 0; rep < 25; ++rep) {
          pool.parallel_for_workers(
              kCount, [&hits, c, &pool](unsigned worker, std::uint64_t i) {
                EXPECT_LT(worker, pool.thread_count());
                hits[c][i].fetch_add(1, std::memory_order_relaxed);
              });
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
  }
  for (const auto& caller_hits : hits) {
    for (const auto& h : caller_hits) EXPECT_EQ(h.load(), 25);
  }
}

TEST(ThreadPool, NestedCallRunsInlineOnTheCallingWorker) {
  const ThreadPool pool(4);
  std::atomic<int> inner_calls{0};
  std::atomic<int> off_thread{0};
  pool.parallel_for_workers(8, [&](unsigned outer, std::uint64_t) {
    const pid_t tid = ::gettid();
    pool.parallel_for_workers(10, [&](unsigned inner, std::uint64_t) {
      inner_calls.fetch_add(1);
      if (inner != outer || ::gettid() != tid) off_thread.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_calls.load(), 80);
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ThreadPool, ABodysExceptionReachesTheCaller) {
  const ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_workers(
                   100,
                   [](unsigned, std::uint64_t i) {
                     if (i == 50) throw std::runtime_error("trial 50");
                   }),
               std::runtime_error);
  // The pool stays usable, and the next call covers its whole range.
  std::atomic<int> calls{0};
  pool.parallel_for_workers(100, [&](unsigned, std::uint64_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 100);
}

TEST(ThreadPool, DestructionJoinsCleanly) {
  const int before = settled_threads();
  { const ThreadPool never_dispatched(4); }
  EXPECT_EQ(process_threads(), before);
  std::atomic<int> calls{0};
  {
    const ThreadPool pool(4);
    for (int rep = 0; rep < 10; ++rep) {
      pool.parallel_for_workers(64, [&](unsigned, std::uint64_t) {
        calls.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(calls.load(), 640);
  EXPECT_EQ(settled_threads(), before);
}

TEST(MonteCarlo, EstimatesAFairCoin) {
  const std::uint64_t trials = 20000;
  std::uint64_t successes = 0;
  for (std::uint64_t i = 0; i < trials; ++i) {
    if ((trial_seed(99, i) & 1) == 0) ++successes;
  }
  const Estimate e = finalize_estimate(successes, trials);
  // trial_seed mixes, so parity of the mixed seed is ~uniform.
  EXPECT_NEAR(e.p_hat, 0.5, 0.02);
  EXPECT_LE(e.ci.lo, e.p_hat);
  EXPECT_GE(e.ci.hi, e.p_hat);
}

TEST(MonteCarlo, TrialSeedsAreDistinct) {
  EXPECT_NE(trial_seed(1, 0), trial_seed(1, 1));
  EXPECT_NE(trial_seed(1, 0), trial_seed(2, 0));
  EXPECT_EQ(trial_seed(1, 5), trial_seed(1, 5));
}

TEST(Summary, BasicStatistics) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_EQ(s.count, 5u);
}

TEST(Summary, QuantilesInterpolate) {
  const std::vector<double> sorted = {0.0, 1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.5), 1.5);
}

TEST(Summary, HistogramClampsOutliers) {
  const auto bins = histogram({-1.0, 0.1, 0.5, 0.9, 2.0}, 0.0, 1.0, 2);
  ASSERT_EQ(bins.size(), 2u);
  // -1.0 clamps into bin 0; 0.5 lands exactly on the bin-1 edge; 2.0
  // clamps into bin 1.
  EXPECT_EQ(bins[0], 2u);
  EXPECT_EQ(bins[1], 3u);
}

TEST(Summary, EmptyInput) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
}

}  // namespace
}  // namespace lnc::stats
