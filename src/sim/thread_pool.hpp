// Reusable fork-join thread pool for the parallel round engine.
//
// One pool lives as long as its SyncNetwork: workers are spawned once and
// parked on a condition variable between rounds, so per-round dispatch is a
// generation bump + two notifications instead of thread creation. run(job)
// executes job(i) for every worker index i and blocks until all are done;
// the first exception thrown by any worker is captured and rethrown on the
// calling thread (the library is exception-based, see util/check.hpp).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dec {

/// The library-wide "num_threads <= 0 means hardware concurrency"
/// convention (SharedNetworkPool, NetworkPool, solvers documenting 0).
/// Every site must resolve identically or the pool/solver shard-count
/// equality contract (ScopedNetwork) breaks — hence one helper.
inline int resolve_num_threads(int num_threads) {
  if (num_threads > 0) return num_threads;
  return static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
}

class ThreadPool {
 public:
  /// Spawn `num_threads` (>= 1) parked workers.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Execute job(i) for i in [0, num_threads) across the workers; blocks
  /// until every invocation returns. `job` must be safe to call concurrently
  /// with distinct indices. Rethrows the first worker exception.
  void run(const std::function<void(int)>& job);

  int num_threads() const { return static_cast<int>(threads_.size()); }

 private:
  void worker(int index);

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  std::exception_ptr first_error_;
  bool stop_ = false;
};

}  // namespace dec
