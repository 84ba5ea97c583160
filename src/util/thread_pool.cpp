#include "util/thread_pool.hpp"

#include "util/check.hpp"

namespace dec {

namespace {

// Spin iterations before a helper parks (waiting for work) or the caller
// parks (waiting for helpers). Back-to-back sharded rounds dispatch again
// within a few microseconds, which the spin catches without a futex wake;
// a helper idle for longer parks and costs nothing.
constexpr int kSpinIterations = 4096;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  DEC_REQUIRE(num_threads >= 1, "thread pool needs at least one thread");
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : helpers_) t.join();
}

void ThreadPool::run_erased(int chunks, void* ctx, Call call) {
  DEC_REQUIRE(chunks >= 1 && chunks <= num_threads_,
              "executor run asks for more chunks than the pool has threads");
  if (chunks == 1) {
    call(ctx, 0);
    return;
  }
  DEC_DASSERT(!running_, "ThreadPool::run is not reentrant");
  // Start the missing helpers; if a thread fails to start, the error
  // leaves before anything is published and the next run retries. The
  // reserve keeps emplace_back from reallocating around a started thread.
  helpers_.reserve(static_cast<std::size_t>(num_threads_) - 1);
  while (static_cast<int>(helpers_.size()) + 1 < num_threads_) {
    const int index = static_cast<int>(helpers_.size()) + 1;
    helpers_.emplace_back([this, index] { helper(index); });
  }
  running_ = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ctx_ = ctx;
    call_ = call;
    chunks_ = chunks;
    first_error_ = nullptr;
    pending_.store(chunks - 1, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
  }
  cv_work_.notify_all();

  std::exception_ptr mine;
  try {
    call(ctx, 0);
  } catch (...) {
    mine = std::current_exception();
  }
  // Join every helper chunk before rethrowing: the job's captures live in
  // the caller's frame.
  for (int i = 0; i < kSpinIterations; ++i) {
    if (pending_.load(std::memory_order_acquire) == 0) break;
    cpu_relax();
  }
  std::exception_ptr theirs;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
    theirs = first_error_;
    first_error_ = nullptr;
  }
  running_ = false;
  if (mine != nullptr) std::rethrow_exception(mine);
  if (theirs != nullptr) std::rethrow_exception(theirs);
}

void ThreadPool::helper(int index) {
  std::uint64_t seen = 0;
  for (;;) {
    for (int i = 0; i < kSpinIterations; ++i) {
      if (generation_.load(std::memory_order_acquire) != seen) break;
      cpu_relax();
    }
    void* ctx = nullptr;
    Call call = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [&] {
        return stop_ || generation_.load(std::memory_order_relaxed) != seen;
      });
      if (stop_) return;
      seen = generation_.load(std::memory_order_relaxed);
      if (index >= chunks_) continue;  // this run needs fewer helpers
      ctx = ctx_;
      call = call_;
    }
    std::exception_ptr error;
    try {
      call(ctx, index);
    } catch (...) {
      error = std::current_exception();
    }
    if (error != nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      if (first_error_ == nullptr) first_error_ = error;
    }
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_done_.notify_one();
    }
  }
}

}  // namespace dec
