// Deterministic fault injection for the chaos suite.
//
// A fault point is a named site in library code (DEC_FAULT_POINT) that
// normally compiles to nothing. In builds configured with
// -DDEC_FAULT_INJECTION=ON the sites call into a process-global registry of
// armed FaultPlans: a plan names a point, the hit index at which it fires,
// and the action — throw TransientError, throw std::bad_alloc, sleep, or
// trip the current run's CancelToken. Hit counting is exact and
// single-threaded-deterministic (a global mutex serializes the slow path),
// so a test that arms "fire on the 3rd slab allocation" aborts the same
// round every run; under the parallel engine the *firing* hit is still
// exact, though which shard observes it depends on scheduling.
//
// Discipline for tests: arm plans, run the scenario, then disarm_all() —
// the registry is process-global, so leaked plans would leak into later
// tests. fault::enabled() is a relaxed atomic armed-plan count; unarmed
// builds (and armed builds with no plans) pay one relaxed load per site.
//
// Current fault points:
//   "network.round" — top of SyncNetwork::begin_round (round barrier, after
//                     the cancel check; DiNetwork/parallel engine share it)
//   "slab.alloc"    — MessageSlab::allocate (spilled-message arena; firing
//                     mid-round exercises abort_round on the worker that
//                     spilled)
//   "service.worker" — SolverService worker, between job pickup and
//                     execution (artificial latency / transient pre-flight
//                     failures without touching round state)
//
// Besides the points, the same build flavor carries the active-round
// contract check (set_full_visit_check below).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace dec {
class CancelToken;
}  // namespace dec

namespace dec::fault {

enum class Action : int {
  kThrowTransient,  // throw dec::TransientError (retryable)
  kAllocFail,       // throw std::bad_alloc (retryable)
  kDelay,           // sleep for `delay` (latency injection)
  kCancel,          // request_cancel() on the site's CancelToken, if any
};

struct FaultPlan {
  Action action = Action::kThrowTransient;
  /// Fire when the point's 0-based hit index reaches this value...
  std::int64_t fire_at = 0;
  /// ...and, when period > 0, again every `period` hits afterwards
  /// (period == 0 means single-shot: fire once, then stay dormant).
  std::int64_t period = 0;
  /// Sleep length for kDelay.
  std::chrono::nanoseconds delay{0};
};

/// Arm (or replace) the plan for a fault point. Hit/fired counters for the
/// point restart at zero.
void arm(const std::string& point, FaultPlan plan);

/// Drop every armed plan (counters included). Call from test teardown.
void disarm_all();

/// Times an armed point was reached / actually fired (0 for unarmed
/// points — counting starts at arm()).
std::int64_t hits(const std::string& point);
std::int64_t fired(const std::string& point);

/// True while any plan is armed (relaxed; the fast path of every site).
bool enabled();

/// Active-round contract check. While on, every SyncNetwork active round
/// (round_fast(prog, wake)) visits EVERY node instead of its visit set, and
/// a node outside wake ∪ last round's receivers that writes its outbox
/// throws CheckError. It is the full-visit side of the active-vs-full
/// equivalence suites: outputs, audits and rounds must match the active
/// run exactly. Only DEC_FAULT_INJECTION builds consult the flag
/// (kFullVisitCheckCompiled); other builds keep the plain active path.
void set_full_visit_check(bool on);
bool full_visit_check();
#ifdef DEC_FAULT_INJECTION
inline constexpr bool kFullVisitCheckCompiled = true;
#else
inline constexpr bool kFullVisitCheckCompiled = false;
#endif

/// Site entry, called by DEC_FAULT_POINT. May throw TransientError or
/// std::bad_alloc, sleep, or cancel `token` (null is fine — a kCancel plan
/// on a token-less site fires as a no-op but still counts).
void hit(const char* point, CancelToken* token = nullptr);

}  // namespace dec::fault

/// A named fault site. Compiles to nothing unless the build defines
/// DEC_FAULT_INJECTION (CMake option of the same name).
#ifdef DEC_FAULT_INJECTION
#define DEC_FAULT_POINT(name) ::dec::fault::hit((name))
#define DEC_FAULT_POINT_CTX(name, token) ::dec::fault::hit((name), (token))
#else
#define DEC_FAULT_POINT(name) \
  do {                        \
  } while (0)
#define DEC_FAULT_POINT_CTX(name, token) \
  do {                                   \
  } while (0)
#endif
