// SolverService: a multi-tenant solver front end over one shared arena.
//
// The service owns a bounded job queue and a set of worker threads. Tenants
// submit SolverRequests (core/solver_registry.hpp) and get JobTickets;
// workers pop jobs and execute them through the registry. What makes this
// more than a generic thread pool is what the workers share:
//
//  * One SharedNetworkPool across all tenants. Each worker holds one
//    thread-confined NetworkPool view over it for its whole life. Plans are
//    shared process-wide — two tenants submitting the same graph shape plan
//    once, even concurrently (the shard mutex serializes the planners; the
//    loser counts a cache hit) — and run states are owned by the worker's
//    view, recycled across that worker's jobs.
//
//  * One persistent set of engine threads. The workers themselves are the
//    service's concurrency: every job runs its solver with
//    ServiceConfig::engine_threads round-engine shards (default 1 — jobs
//    are the unit of parallelism, and recycled run states keep their engine
//    thread pools across jobs, so nothing is respawned per job).
//
// Execution through the service is bit-identical to calling the solver
// directly with a fresh pool — outputs, audited rounds, and per-component
// ledger breakdowns (tests/test_solver_service.cpp pins this under TSan).
//
// Failure model (docs/ARCHITECTURE.md § Failure model). Every admitted
// job's future is satisfied with a SolverResult value — never an exception
// — whose `status` is the outcome taxonomy:
//
//  * kOk: the solver's result, bit-identical to a direct call (even when
//    the run was retried: each attempt starts on a freshly reset lease).
//  * kCancelled: cancel(id) — or the job's CancelToken — tripped; the
//    solver unwound at the next round barrier and its leases returned clean.
//  * kDeadlineExceeded: SubmitOptions::deadline (wall clock, enforced both
//    at round barriers and by the service watchdog) or ::round_budget (a
//    deterministic barrier-count deadline) expired. Cooperative: a job is
//    interrupted at round granularity, and an expired queued job is
//    resolved without ever running.
//  * kRejected: never admitted (try_submit on a full queue, any submit
//    after shutdown) or still queued when the service stopped;
//    SolverResult::reject says which. submit() blocked on a full queue
//    wakes with a Rejected{kShuttingDown} ticket on shutdown — it never
//    deadlocks and never enqueues past shutdown.
//  * kFailed: the solver threw; `error` carries what(). TransientError and
//    std::bad_alloc are retried up to SubmitOptions::max_retries times
//    (with linear backoff) before the failure is surfaced; any other
//    exception is permanent on the first throw.
//
// Scheduling (PR 8): the ready queue is not a FIFO. Workers always pick
//
//   1. the most urgent priority class (SubmitOptions::priority — kHigh
//      before kNormal before kLow; classes are strict: a lower class runs
//      only when no higher-class job is ready),
//   2. within a class, earliest deadline first (EDF) — deadlined jobs
//      always ahead of deadline-less peers of the same class,
//   3. ties (equal deadlines, or no deadlines) broken by arrival order.
//
// The order is deterministic given the admitted set (queued_order()
// exposes it; tests/test_service_sched.cpp pins it with workers = 0).
//
// Lifecycle: submit() blocks while the queue is full (backpressure) — but
// never past the job's own deadline: a deadlined submit against a full
// queue uses wait_until and resolves the future kDeadlineExceeded instead
// of hanging (stats().submit_timeouts counts these). shutdown() stops
// intake, lets the workers drain every queued job (each resolves with its
// own status — a cancelled queued job still reports kCancelled, an expired
// one kDeadlineExceeded), and joins workers and watchdog; the destructor
// calls shutdown().
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/solver_registry.hpp"
#include "sim/cancel.hpp"
#include "sim/shared_pool.hpp"

namespace dec {

struct ServiceConfig {
  /// Worker threads executing jobs concurrently (>= 0; 0 means jobs are
  /// admitted but never run — only useful to tests that need a
  /// deterministically full queue).
  int workers = 2;
  /// Jobs the queue holds before submit() blocks (>= 1).
  std::size_t queue_capacity = 64;
  /// Round-engine shards per job (the solvers' num_threads; 1 = serial
  /// engine, 0 = hardware concurrency), the same for every job. Results are
  /// bit-identical across engine shard counts; the default keeps jobs the
  /// unit of parallelism.
  int engine_threads = 1;
  /// How often the watchdog sweeps live jobs for expired deadlines. The
  /// round barrier usually notices first; the watchdog covers jobs
  /// sleeping between barriers (e.g. under injected latency).
  std::chrono::milliseconds watchdog_period{5};
};

struct ServiceStats {
  std::int64_t submitted = 0;  // admitted jobs (rejections not included)
  std::int64_t completed = 0;  // futures satisfied with status kOk
  std::int64_t failed = 0;     // status kFailed
  std::int64_t cancelled = 0;  // status kCancelled
  std::int64_t deadline_exceeded = 0;  // status kDeadlineExceeded
  std::int64_t rejected = 0;   // tickets/futures resolved kRejected
  std::int64_t retried = 0;    // transient-failure re-runs (attempts - 1)
  /// Blocking submits that timed out on a full queue (their deadline
  /// expired before space appeared); a subset of deadline_exceeded.
  std::int64_t submit_timeouts = 0;
  // Queue occupancy at the instant of the snapshot.
  std::size_t queued = 0;
  std::size_t running = 0;
  // Shared-arena counters (global across the service's tenants).
  std::int64_t plans_built = 0;   // topology cache misses
  std::int64_t plans_shared = 0;  // topology cache hits
  double cache_hit_rate = 0.0;    // shared / (built + shared), 0 when idle
  /// Always 0: run states belong to the worker views and are never parked
  /// in the shared arena. Kept because the repository benchmark reads it
  /// (perfbench/service_workload.cpp reports pool.parked_run_states).
  std::size_t parked_run_states = 0;
  // Queue-wait times (submit to worker pickup), averaged over the jobs a
  // worker has picked up so far.
  double avg_queue_wait_ms = 0.0;
  double max_queue_wait_ms = 0.0;
};

/// Service-assigned job identity; 0 is never assigned (rejected tickets
/// carry 0).
using JobId = std::uint64_t;

/// Scheduling class. Strict priority: a kNormal job runs only when no
/// kHigh job is ready, kLow only when neither is. Within one class the
/// scheduler is EDF (earliest deadline first), deadline-less jobs behind
/// every deadlined peer of the class, arrival order breaking ties.
enum class Priority : int {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};

const char* to_string(Priority p);

/// Per-job scheduling and failure-handling knobs. Everything defaults to
/// off/neutral: normal priority, no deadline, no round budget, no retries.
struct SubmitOptions {
  /// Wall-clock deadline, measured from entry into submit()/try_submit()
  /// — time spent blocked on a full queue counts against it; zero = none.
  std::chrono::nanoseconds deadline{0};
  /// Deterministic deadline: abort at the (round_budget + 1)-th round
  /// barrier; zero = none. Reports as kDeadlineExceeded.
  std::int64_t round_budget = 0;
  /// Re-runs allowed after a transient failure (TransientError /
  /// std::bad_alloc). Each re-run starts from a clean lease.
  int max_retries = 0;
  /// Backoff before retry i is backoff * i (linear).
  std::chrono::nanoseconds retry_backoff{std::chrono::milliseconds(1)};
  /// Scheduling class (see Priority).
  Priority priority = Priority::kNormal;
};

/// What a tenant holds after submit()/try_submit(). The future is always
/// valid and always eventually satisfied with a SolverResult value (check
/// .status — no exception-sniffing). For rejected submissions `accepted` is
/// false, `reject` says why, and the future is already satisfied with a
/// kRejected result.
struct JobTicket {
  JobId id = 0;  // 0 when never admitted
  bool accepted = false;
  RejectReason reject = RejectReason::kNone;
  std::future<SolverResult> result;
};

class SolverService {
 public:
  explicit SolverService(ServiceConfig cfg = {});
  ~SolverService();  // shutdown(): drains queued jobs, joins workers

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Queue a job; blocks while the queue is full — but never past the
  /// job's own deadline: with opts.deadline set, a full-queue wait is
  /// wait_until-bounded, and on expiry the ticket comes back unaccepted
  /// with its future already resolved kDeadlineExceeded (counted in
  /// stats().submit_timeouts). Returns a rejected ticket (never throws,
  /// never deadlocks) when the service is shutting down — including when
  /// shutdown() arrives while this call is blocked waiting for space.
  /// Callable from any thread.
  JobTicket submit(SolverRequest req, SubmitOptions opts = {});

  /// Non-blocking admission control: a Rejected{kQueueFull} ticket when the
  /// queue is full, Rejected{kShuttingDown} after shutdown — the job is
  /// not queued in either case.
  JobTicket try_submit(SolverRequest req, SubmitOptions opts = {});

  /// Request cooperative cancellation of a live (queued or running) job.
  /// Returns true when the job was live — its future will resolve with
  /// kCancelled (or whatever terminal state won the race). False when the
  /// id is unknown or already resolved.
  bool cancel(JobId id);

  /// Block until every job submitted so far has been executed.
  void drain();

  /// Stop intake, drain the queue, join workers and watchdog. Idempotent;
  /// implied by destruction. Queued jobs still resolve (a service with
  /// zero workers resolves them as Rejected{kShuttingDown}).
  void shutdown();

  ServiceStats stats() const;

  /// The queued (not yet picked up) jobs in exactly the order workers
  /// would pop them: priority class, then EDF, then arrival. Snapshot
  /// under the queue lock; meant for tests (deterministic with
  /// workers = 0) and observability, not for scheduling decisions.
  std::vector<JobId> queued_order() const;

  /// The arena shared by every worker (e.g. to pre-warm topology plans).
  SharedNetworkPool& shared_pool() { return shared_pool_; }

  const ServiceConfig& config() const { return cfg_; }

 private:
  /// One admitted job. Shared between the queue/worker, the live-job index
  /// (cancel/watchdog), and nothing else; the promise is satisfied exactly
  /// once, by the worker that popped it or by shutdown's leftover sweep.
  /// Every field except the token and promise is written once, at
  /// admission, before the job is published to the queue — the watchdog
  /// reads deadline/has_deadline outside the lock on that basis.
  struct JobState {
    JobId id = 0;
    SolverRequest req;
    SubmitOptions opts;
    std::promise<SolverResult> promise;
    CancelToken token;
    std::chrono::steady_clock::time_point enqueued;  // submit entry
    std::chrono::steady_clock::time_point deadline;  // valid iff has_deadline
    bool has_deadline = false;
    std::int64_t queue_wait_ns = 0;  // recorded at worker pickup
  };

  /// Scheduling order (strict weak, total via the id tie-break): priority
  /// class, then deadlined-before-deadline-less, then EDF, then arrival.
  struct SchedOrder {
    bool operator()(const std::shared_ptr<JobState>& a,
                    const std::shared_ptr<JobState>& b) const {
      if (a->opts.priority != b->opts.priority) {
        return a->opts.priority < b->opts.priority;
      }
      if (a->has_deadline != b->has_deadline) return a->has_deadline;
      if (a->has_deadline && a->deadline != b->deadline) {
        return a->deadline < b->deadline;
      }
      return a->id < b->id;  // ids are assigned in arrival order
    }
  };
  /// The ready queue: ordered set, workers pop *begin(). Insert/pop are
  /// O(log queued) — queues are bounded by queue_capacity, so this is
  /// cheap next to a solver run.
  using ReadyQueue = std::set<std::shared_ptr<JobState>, SchedOrder>;

  void worker_main();
  void watchdog_main();

  /// Admission: price the ticket under the lock. Returns an accepted
  /// ticket with the job queued, or a rejected/expired ticket (promise
  /// already satisfied) without side effects on the queue.
  JobTicket admit(SolverRequest req, SubmitOptions opts, bool blocking);

  /// Run one job to a terminal SolverResult (never throws): cancel/deadline
  /// checks, the solver itself, and the bounded transient-retry loop, on
  /// the worker's `view` with its shard count.
  SolverResult run_job(JobState& job, NetworkPool& view);

  /// Terminal result for a tripped token / SolverAborted unwind.
  SolverResult aborted_result(const JobState& job, AbortReason reason,
                              int attempts) const;

  /// Count a terminal status into the stats counters (mu_ held).
  void count_status(const SolverResult& result);

  ServiceConfig cfg_;
  SharedNetworkPool shared_pool_;

  mutable std::mutex mu_;
  std::condition_variable cv_not_empty_;
  std::condition_variable cv_not_full_;
  std::condition_variable cv_idle_;  // queue empty and no job in flight
  std::condition_variable cv_watchdog_;
  ReadyQueue queue_;
  /// Queued + running jobs by id (cancel() and the watchdog resolve
  /// targets here); erased once the future is satisfied.
  std::unordered_map<JobId, std::shared_ptr<JobState>> live_;
  JobId next_id_ = 1;
  int in_flight_ = 0;
  bool stopping_ = false;

  // Guarded by mu_ (stats() snapshots under the lock).
  std::int64_t submitted_ = 0;
  std::int64_t completed_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t cancelled_ = 0;
  std::int64_t deadline_exceeded_ = 0;
  std::int64_t rejected_ = 0;
  std::int64_t retried_ = 0;
  std::int64_t submit_timeouts_ = 0;
  std::int64_t waited_jobs_ = 0;  // jobs whose queue wait has been recorded
  std::int64_t wait_ns_total_ = 0;
  std::int64_t wait_ns_max_ = 0;

  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

}  // namespace dec
