// A minimal work-sharing thread pool for embarrassingly parallel trial
// loops — the one way Monte-Carlo work reaches threads (local::BatchRunner
// spreads trials, or vector batches of trials, through it). Workers pull
// chunks of a trial-index range off an atomic cursor; every trial derives
// its own seed, so there is no shared mutable state in the loop body and
// the parallel estimate equals the sequential one bit for bit (required:
// experiments must be reproducible across thread counts).
//
// parallel_for_workers hands the body a stable worker index in
// [0, thread_count): results must depend only on the trial index, but the
// worker index lets the body pick a per-worker arena (scratch memory
// reused across trials — see local/batch_runner.h) without any locking.
#pragma once

#include <cstdint>
#include <functional>
#include <thread>

namespace lnc::stats {

class ThreadPool {
 public:
  /// thread_count == 0 selects hardware_concurrency (>= 1).
  explicit ThreadPool(unsigned thread_count = 0);

  unsigned thread_count() const noexcept { return thread_count_; }

  /// Invokes fn(worker, i) for every i in [0, count) across the pool and
  /// blocks until all invocations complete; `worker` is a stable index in
  /// [0, thread_count) identifying the executing thread. Chunked
  /// scheduling amortizes the atomic fetch. The assignment of trials to
  /// workers is nondeterministic — bodies must derive results from `i`
  /// alone and use `worker` only to select scratch storage.
  void parallel_for_workers(
      std::uint64_t count,
      const std::function<void(unsigned, std::uint64_t)>& fn) const;

 private:
  unsigned thread_count_;
};

}  // namespace lnc::stats
