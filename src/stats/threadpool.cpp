#include "stats/threadpool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace lnc::stats {
namespace {

// The pool whose worker this thread is (null on every other thread) and
// its index there: a dispatch from inside a running body runs inline,
// since the workers it would wait for include its own thread.
thread_local const void* tl_pool = nullptr;
thread_local unsigned tl_worker = 0;

}  // namespace

struct ThreadPool::Workers {
  /// Held by a caller from publishing its range until the range is done,
  /// so callers on different threads take turns.
  std::mutex turn;

  std::mutex mutex;  // guards the dispatch fields below
  std::condition_variable wake;  // workers: a new dispatch, or stop
  std::condition_variable done;  // the caller: every participant finished
  std::uint64_t generation = 0;  // dispatches published so far
  bool stopping = false;
  const std::function<void(unsigned, std::uint64_t)>* fn = nullptr;
  std::uint64_t count = 0;
  std::uint64_t chunk = 1;
  unsigned participants = 0;  // workers [0, participants) run the dispatch
  unsigned running = 0;       // participants still running it
  std::exception_ptr error;   // the first exception a body threw in it
  std::atomic<std::uint64_t> cursor{0};

  // Started workers, by index; declared last, so they are joined (in the
  // destructor body) while everything they use is alive.
  std::vector<std::thread> threads;

  ~Workers() {
    {
      const std::lock_guard<std::mutex> guard(mutex);
      stopping = true;
    }
    wake.notify_all();
    for (std::thread& thread : threads) thread.join();
  }

  /// Worker `index`'s loop: park until a dispatch newer than `seen` is
  /// published, run its chunks if the worker takes part, report, repeat.
  void run(unsigned index, std::uint64_t seen) {
    tl_pool = this;
    tl_worker = index;
    std::unique_lock<std::mutex> lock(mutex);
    while (true) {
      wake.wait(lock, [&] { return stopping || generation != seen; });
      if (stopping) return;
      seen = generation;
      if (index >= participants) continue;
      const auto& body = *fn;
      const std::uint64_t end_index = count;
      const std::uint64_t step = chunk;
      lock.unlock();
      std::exception_ptr thrown;
      try {
        while (true) {
          const std::uint64_t begin =
              cursor.fetch_add(step, std::memory_order_relaxed);
          if (begin >= end_index) break;
          const std::uint64_t end = std::min(end_index, begin + step);
          for (std::uint64_t i = begin; i < end; ++i) body(index, i);
        }
      } catch (...) {
        // The caller rethrows it; the other workers take no new chunk.
        thrown = std::current_exception();
        cursor.store(end_index, std::memory_order_relaxed);
      }
      lock.lock();
      if (thrown != nullptr && error == nullptr) error = thrown;
      if (--running == 0) done.notify_one();
    }
  }
};

ThreadPool::ThreadPool(unsigned thread_count)
    : thread_count_(thread_count), workers_(std::make_unique<Workers>()) {
  if (thread_count_ == 0) {
    thread_count_ = std::max(1u, std::thread::hardware_concurrency());
  }
}

ThreadPool::~ThreadPool() = default;

void ThreadPool::parallel_for_workers(
    std::uint64_t count,
    const std::function<void(unsigned, std::uint64_t)>& fn) const {
  if (count == 0) return;
  Workers& w = *workers_;
  if (thread_count_ == 1 || count == 1 || tl_pool == &w) {
    const unsigned worker = tl_pool == &w ? tl_worker : 0;
    for (std::uint64_t i = 0; i < count; ++i) fn(worker, i);
    return;
  }
  const unsigned participants = static_cast<unsigned>(
      std::min<std::uint64_t>(count, thread_count_));
  const std::lock_guard<std::mutex> turn(w.turn);
  {
    const std::lock_guard<std::mutex> guard(w.mutex);
    // Workers start here, the first time a dispatch needs them. A new
    // worker has seen every dispatch so far, so it waits for this one.
    while (w.threads.size() < participants) {
      w.threads.emplace_back(&Workers::run, &w,
                             static_cast<unsigned>(w.threads.size()),
                             w.generation);
    }
    w.fn = &fn;
    w.count = count;
    w.chunk = std::max<std::uint64_t>(
        1, count / (static_cast<std::uint64_t>(thread_count_) * 8));
    w.participants = participants;
    w.running = participants;
    w.cursor.store(0, std::memory_order_relaxed);
    ++w.generation;
  }
  w.wake.notify_all();
  std::unique_lock<std::mutex> lock(w.mutex);
  w.done.wait(lock, [&] { return w.running == 0; });
  if (w.error != nullptr) std::rethrow_exception(std::exchange(w.error, {}));
}

}  // namespace lnc::stats
