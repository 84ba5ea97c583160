// Cooperative cancellation and deadlines for the round substrate.
//
// A CancelToken is shared between a controller (the SolverService's
// cancel()/watchdog, a test, any caller) and a running solver. The solver
// side never polls explicitly: SyncNetwork checks the token once per round,
// at the top of begin_round(), before any round state is touched — so an
// abort always observes the network in its exact post-last-round state (the
// previous round's delivery is still readable, rounds_executed() is the
// count of *finished* rounds, and a pooled lease resets as cheaply as after
// a normal run). DiNetwork inherits the same barrier through the shared
// SyncNetwork round loop.
//
// Cost discipline: with no token installed the per-round cost is one
// null-pointer test; with a token installed but nothing armed it is one
// relaxed atomic load plus two predictable branches (pinned by
// BM_NetworkRound / BM_NetworkRoundCancelToken). Nothing is checked per
// slot or per node.
//
// Three trip conditions, checked in this order:
//  * request_cancel() — the controller's explicit flag (thread-safe, sticky;
//    the first reason to land wins).
//  * a wall-clock deadline (steady clock) — checked lazily at the barrier,
//    so expiry is detected within one round of work. The service watchdog
//    additionally flips overdue tokens from outside for jobs sleeping
//    between barriers.
//  * a round budget — a deterministic deadline counted in barrier checks
//    instead of nanoseconds. Tests use it to abort a solver at an exact
//    phase without wall-clock flakiness; it reports as kDeadlineExceeded.
//
// Configuration (set_deadline / set_round_budget) must happen before the
// token is shared with a running solver; only request_cancel() and check()
// are thread-safe afterwards.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>

namespace dec {

/// Why a run was aborted. Mapped to SolverStatus by the service layer.
enum class AbortReason : int {
  kCancelled = 1,         // request_cancel()
  kDeadlineExceeded = 2,  // wall-clock deadline or round budget exhausted
};

/// Thrown from the round barrier when a CancelToken has tripped. Solvers do
/// not catch it (leases unwind and park clean run states); the service maps
/// it to a structured SolverStatus instead of exposing the exception.
class SolverAborted : public std::exception {
 public:
  explicit SolverAborted(AbortReason reason) : reason_(reason) {}
  AbortReason reason() const { return reason_; }
  const char* what() const noexcept override {
    return reason_ == AbortReason::kCancelled
               ? "solver aborted: cancelled"
               : "solver aborted: deadline exceeded";
  }

 private:
  AbortReason reason_;
};

class CancelToken {
 public:
  CancelToken() = default;
  // Shared by pointer between controller and solver; never copied.
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Trip the token (thread-safe, idempotent: the first reason sticks).
  void request_cancel(AbortReason reason = AbortReason::kCancelled) {
    int expected = 0;
    state_.compare_exchange_strong(expected, static_cast<int>(reason),
                                   std::memory_order_relaxed);
  }

  /// Abort once the steady clock passes `deadline`. Configure before
  /// sharing the token with a running solver.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }

  /// Deterministic deadline: abort on the (budget + 1)-th barrier check.
  /// A budget of r lets exactly r rounds run to completion.
  void set_round_budget(std::int64_t budget) {
    budget_.store(budget, std::memory_order_relaxed);
    has_budget_ = true;
  }

  /// True once tripped (explicitly or by a check() that saw an expired
  /// deadline/budget).
  bool aborted() const {
    return state_.load(std::memory_order_relaxed) != 0;
  }

  /// The reason recorded by the trip; meaningless unless aborted().
  AbortReason reason() const {
    return static_cast<AbortReason>(state_.load(std::memory_order_relaxed));
  }

  /// The round barrier: throw SolverAborted iff tripped, consuming one unit
  /// of round budget and latching an expired wall-clock deadline. The
  /// armed-but-idle fast path is one relaxed load and two never-taken
  /// branches.
  void check() {
    int s = state_.load(std::memory_order_relaxed);
    if (s == 0) {
      if (has_budget_ &&
          budget_.fetch_sub(1, std::memory_order_relaxed) <= 0) {
        request_cancel(AbortReason::kDeadlineExceeded);
        s = state_.load(std::memory_order_relaxed);
      } else if (has_deadline_ &&
                 std::chrono::steady_clock::now() >= deadline_) {
        request_cancel(AbortReason::kDeadlineExceeded);
        s = state_.load(std::memory_order_relaxed);
      }
    }
    if (s != 0) throw SolverAborted(static_cast<AbortReason>(s));
  }

 private:
  // 0 = live; otherwise the AbortReason that tripped first.
  std::atomic<int> state_{0};
  std::atomic<std::int64_t> budget_{0};
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  bool has_budget_ = false;
};

}  // namespace dec
