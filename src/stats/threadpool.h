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
//
// The pool owns its threads for its whole lifetime. Constructing it starts
// none: worker w starts on the first dispatch that needs more than w
// workers and then parks on a condition variable between dispatches (no
// spinning), so a pool costs no thread start-up per dispatch and keeps
// its workers' thread-local caches warm. The calling thread only waits.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

namespace lnc::stats {

class ThreadPool {
 public:
  /// thread_count == 0 selects hardware_concurrency (>= 1). Starts no
  /// thread.
  explicit ThreadPool(unsigned thread_count = 0);

  /// Stops and joins every started worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ThreadPool(ThreadPool&&) = delete;
  ThreadPool& operator=(ThreadPool&&) = delete;

  unsigned thread_count() const noexcept { return thread_count_; }

  /// Invokes fn(worker, i) for every i in [0, count) across the pool and
  /// blocks until all invocations complete; `worker` is a stable index in
  /// [0, thread_count) identifying the executing thread, and no two
  /// invocations of one call run on the same index at once. Chunked
  /// scheduling amortizes the atomic fetch. The assignment of trials to
  /// workers is nondeterministic — bodies must derive results from `i`
  /// alone and use `worker` only to select scratch storage.
  ///
  /// A one-thread pool and a one-index range run inline on the calling
  /// thread as worker 0, and so does a call made from inside a body
  /// running on this pool (as that body's worker). Calls from different
  /// threads take turns: each dispatch has every worker to itself. If a
  /// body throws, no worker starts a new chunk and the call rethrows the
  /// first exception once the running chunks are done.
  void parallel_for_workers(
      std::uint64_t count,
      const std::function<void(unsigned, std::uint64_t)>& fn) const;

 private:
  struct Workers;

  unsigned thread_count_;
  std::unique_ptr<Workers> workers_;
};

}  // namespace lnc::stats
