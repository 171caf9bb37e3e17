#include "stats/threadpool.h"

#include <algorithm>
#include <atomic>
#include <vector>

namespace lnc::stats {

ThreadPool::ThreadPool(unsigned thread_count) : thread_count_(thread_count) {
  if (thread_count_ == 0) {
    thread_count_ = std::max(1u, std::thread::hardware_concurrency());
  }
}

void ThreadPool::parallel_for_workers(
    std::uint64_t count,
    const std::function<void(unsigned, std::uint64_t)>& fn) const {
  if (count == 0) return;
  if (thread_count_ == 1 || count == 1) {
    for (std::uint64_t i = 0; i < count; ++i) fn(0, i);
    return;
  }
  const std::uint64_t chunk = std::max<std::uint64_t>(
      1, count / (static_cast<std::uint64_t>(thread_count_) * 8));
  std::atomic<std::uint64_t> cursor{0};
  auto worker = [&](unsigned worker_index) {
    while (true) {
      const std::uint64_t begin =
          cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count) return;
      const std::uint64_t end = std::min(count, begin + chunk);
      for (std::uint64_t i = begin; i < end; ++i) fn(worker_index, i);
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(thread_count_);
  for (unsigned t = 0; t < thread_count_; ++t) {
    threads.emplace_back(worker, t);
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace lnc::stats
