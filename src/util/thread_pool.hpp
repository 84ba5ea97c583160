// The library's fork-join executor.
//
// One ThreadPool serves every parallel loop of one thread-confined owner: a
// NetworkPool view owns one and lends it to every SyncNetwork/DiNetwork it
// builds (their sharded rounds) and to the solve stages that run outside
// rounds (line-graph construction, the coloring checks); a network built
// outside any view owns a private one. run(chunks, job) runs job(0) on the
// calling thread and job(1..chunks-1) on helper threads, so a pool of
// num_threads = T keeps T - 1 helpers. The helpers start on the first run
// that needs one — a one-thread pool, and every pool that only ever runs one
// chunk, starts no thread — and park on a condition variable between runs
// after a short spin. The first exception thrown by any chunk is rethrown on
// the caller once every helper has finished its chunk (the library is
// exception-based, see util/check.hpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
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
  /// A pool of `num_threads` (>= 1): the caller plus num_threads - 1
  /// helpers, started lazily.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Execute job(i) for every i in [0, chunks), 1 <= chunks <=
  /// num_threads(): chunk 0 on the calling thread, the rest on helpers;
  /// returns when all are done. `job` must be safe to call concurrently
  /// with distinct indices. One chunk is a plain call. Not reentrant: a job
  /// must not run this pool again.
  template <class F>
  void run(int chunks, F&& job) {
    using Job = std::remove_reference_t<F>;
    run_erased(chunks, const_cast<void*>(static_cast<const void*>(&job)),
               [](void* ctx, int i) { (*static_cast<Job*>(ctx))(i); });
  }

 private:
  using Call = void (*)(void*, int);
  void run_erased(int chunks, void* ctx, Call call);
  void helper(int index);

  int num_threads_;
  std::vector<std::thread> helpers_;
  // Job of the current generation; written by the caller before the
  // generation bump that publishes it.
  void* ctx_ = nullptr;
  Call call_ = nullptr;
  int chunks_ = 0;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<int> pending_{0};  // helpers still running this generation
  std::mutex mu_;                // parks helpers and the caller
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::exception_ptr first_error_;  // guarded by mu_
  bool stop_ = false;               // guarded by mu_
  bool running_ = false;            // reentrancy guard (caller side)
};

/// Chunk count for a loop of `work` units: one chunk per `min_per_chunk`
/// units, capped by the executor's threads; 1 without an executor or below
/// two chunks' worth, where the loop takes the plain serial call.
inline int chunk_count(const ThreadPool* executor, std::size_t work,
                       std::size_t min_per_chunk) {
  if (executor == nullptr || work < 2 * min_per_chunk) return 1;
  const std::size_t by_work = work / min_per_chunk;
  return static_cast<int>(std::min<std::size_t>(
      by_work, static_cast<std::size_t>(executor->num_threads())));
}

/// Boundaries b[0] = 0 <= b[1] <= ... <= b[chunks] = count splitting
/// [0, count) into chunks of about equal weight, where prefix(i) is the
/// total weight of [0, i) (nondecreasing in i).
template <class Prefix>
std::vector<std::size_t> balanced_bounds(std::size_t count, int chunks,
                                         Prefix&& prefix) {
  std::vector<std::size_t> bound(static_cast<std::size_t>(chunks) + 1, count);
  bound[0] = 0;
  const auto total = static_cast<std::size_t>(prefix(count));
  for (int c = 1; c < chunks; ++c) {
    const std::size_t target =
        total * static_cast<std::size_t>(c) / static_cast<std::size_t>(chunks);
    // First i with prefix(i) >= target.
    std::size_t lo = bound[static_cast<std::size_t>(c) - 1];
    std::size_t hi = count;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (static_cast<std::size_t>(prefix(mid)) < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    bound[static_cast<std::size_t>(c)] = lo;
  }
  return bound;
}

}  // namespace dec
