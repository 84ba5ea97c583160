#include "service/solver_service.hpp"

#include <new>
#include <utility>

#include "sim/pool.hpp"
#include "testing/fault_injection.hpp"
#include "util/check.hpp"

namespace dec {

namespace {

std::int64_t ns_between(std::chrono::steady_clock::time_point from,
                        std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

}  // namespace

const char* to_string(Priority p) {
  switch (p) {
    case Priority::kHigh:
      return "high";
    case Priority::kNormal:
      return "normal";
    case Priority::kLow:
      return "low";
  }
  return "unknown";
}

SolverService::SolverService(ServiceConfig cfg)
    : cfg_(cfg), shared_pool_(cfg.engine_threads) {
  DEC_REQUIRE(cfg_.workers >= 0, "worker count must be non-negative");
  DEC_REQUIRE(cfg_.queue_capacity >= 1, "queue capacity must be positive");
  DEC_REQUIRE(cfg_.watchdog_period.count() > 0,
              "watchdog period must be positive");
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
  watchdog_ = std::thread([this] { watchdog_main(); });
}

SolverService::~SolverService() { shutdown(); }

JobTicket SolverService::admit(SolverRequest req, SubmitOptions opts,
                               bool blocking) {
  DEC_REQUIRE(solver_registered(req.solver),
              "submit: unknown solver id: " + req.solver);
  auto job = std::make_shared<JobState>();
  job->req = std::move(req);
  job->opts = opts;
  // The deadline clock starts here, at submit entry: time spent blocked on
  // a full queue is queueing delay and counts against it.
  job->enqueued = std::chrono::steady_clock::now();
  if (opts.deadline.count() > 0) {
    job->deadline = job->enqueued + opts.deadline;
    job->has_deadline = true;
  }
  JobTicket ticket;
  ticket.result = job->promise.get_future();

  RejectReason reject = RejectReason::kNone;
  bool expired = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (blocking) {
      const auto have_space = [this] {
        return stopping_ || queue_.size() < cfg_.queue_capacity;
      };
      if (job->has_deadline) {
        // Deadline-bounded backpressure: never wait past the job's own
        // deadline — a full queue that stays full resolves the ticket
        // kDeadlineExceeded instead of hanging the tenant.
        expired = !cv_not_full_.wait_until(lock, job->deadline, have_space);
      } else {
        cv_not_full_.wait(lock, have_space);
      }
    }
    if (expired) {
      ++deadline_exceeded_;
      ++submit_timeouts_;
    } else if (stopping_) {
      reject = RejectReason::kShuttingDown;
    } else if (queue_.size() >= cfg_.queue_capacity) {
      reject = RejectReason::kQueueFull;  // non-blocking path only
    } else {
      job->id = next_id_++;
      if (job->has_deadline) job->token.set_deadline(job->deadline);
      if (opts.round_budget > 0) {
        job->token.set_round_budget(opts.round_budget);
      }
      queue_.insert(job);
      live_.emplace(job->id, job);
      ++submitted_;
    }
    if (reject != RejectReason::kNone) ++rejected_;
  }

  if (expired) {
    // Timed out waiting for space: never admitted, never queued. The
    // future resolves with the same status an expired queued job gets.
    SolverResult result;
    result.solver = job->req.solver;
    result.status = SolverStatus::kDeadlineExceeded;
    result.attempts = 0;
    result.e2e_latency_ns =
        ns_between(job->enqueued, std::chrono::steady_clock::now());
    job->promise.set_value(std::move(result));
    return ticket;
  }
  if (reject != RejectReason::kNone) {
    // Reject without queueing: the ticket's future is satisfied here, so
    // tenants can treat every future uniformly.
    SolverResult result;
    result.solver = job->req.solver;
    result.status = SolverStatus::kRejected;
    result.reject = reject;
    result.attempts = 0;
    job->promise.set_value(std::move(result));
    ticket.reject = reject;
    return ticket;
  }
  cv_not_empty_.notify_one();
  ticket.id = job->id;
  ticket.accepted = true;
  return ticket;
}

JobTicket SolverService::submit(SolverRequest req, SubmitOptions opts) {
  return admit(std::move(req), opts, /*blocking=*/true);
}

JobTicket SolverService::try_submit(SolverRequest req, SubmitOptions opts) {
  return admit(std::move(req), opts, /*blocking=*/false);
}

bool SolverService::cancel(JobId id) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = live_.find(id);
  if (it == live_.end()) return false;
  it->second->token.request_cancel(AbortReason::kCancelled);
  return true;
}

void SolverService::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

std::vector<JobId> SolverService::queued_order() const {
  std::vector<JobId> ids;
  std::unique_lock<std::mutex> lock(mu_);
  ids.reserve(queue_.size());
  for (const std::shared_ptr<JobState>& job : queue_) ids.push_back(job->id);
  return ids;
}

void SolverService::shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty() && !watchdog_.joinable()) return;
    stopping_ = true;
  }
  // Wake blocked submitters (they resolve their tickets as
  // Rejected{kShuttingDown}), idle workers, and the watchdog.
  cv_not_empty_.notify_all();
  cv_not_full_.notify_all();
  cv_watchdog_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (watchdog_.joinable()) watchdog_.join();

  // Whatever the workers could not drain (only possible with zero
  // workers) resolves here: cancelled/expired jobs with their own status,
  // the rest as Rejected{kShuttingDown}.
  ReadyQueue leftovers;
  {
    std::unique_lock<std::mutex> lock(mu_);
    leftovers.swap(queue_);
  }
  const auto now = std::chrono::steady_clock::now();
  for (const std::shared_ptr<JobState>& job : leftovers) {
    // Wall-clock deadlines latch lazily (at barriers, pickup, or a
    // watchdog sweep) — a queued job already past its deadline at shutdown
    // may not have tripped its token yet, but it still owes the tenant
    // kDeadlineExceeded, not a shutdown rejection.
    if (!job->token.aborted() && job->has_deadline && now >= job->deadline) {
      job->token.request_cancel(AbortReason::kDeadlineExceeded);
    }
    SolverResult result;
    if (job->token.aborted()) {
      result = aborted_result(*job, job->token.reason(), /*attempts=*/0);
    } else {
      result.solver = job->req.solver;
      result.status = SolverStatus::kRejected;
      result.reject = RejectReason::kShuttingDown;
      result.attempts = 0;
    }
    result.e2e_latency_ns = ns_between(job->enqueued, now);
    {
      std::unique_lock<std::mutex> lock(mu_);
      count_status(result);
      live_.erase(job->id);
    }
    job->promise.set_value(std::move(result));
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
  }
}

ServiceStats SolverService::stats() const {
  ServiceStats s;
  {
    std::unique_lock<std::mutex> lock(mu_);
    s.submitted = submitted_;
    s.completed = completed_;
    s.failed = failed_;
    s.cancelled = cancelled_;
    s.deadline_exceeded = deadline_exceeded_;
    s.rejected = rejected_;
    s.retried = retried_;
    s.submit_timeouts = submit_timeouts_;
    s.queued = queue_.size();
    s.running = static_cast<std::size_t>(in_flight_);
    // Averaged over jobs whose wait has been recorded (worker pickup), not
    // over finished jobs — a picked-up-but-running job's wait must not be
    // spread over a smaller denominator.
    s.avg_queue_wait_ms =
        waited_jobs_ > 0 ? static_cast<double>(wait_ns_total_) /
                               static_cast<double>(waited_jobs_) / 1e6
                         : 0.0;
    s.max_queue_wait_ms = static_cast<double>(wait_ns_max_) / 1e6;
  }
  // Read the cache counters once: hit rate, plans_built and plans_shared
  // all derive from that one pair, so the rate always equals
  // shared / (built + shared) for the very numbers reported.
  const SharedNetworkPool::TopologyCounters counters =
      shared_pool_.topology_counters();
  s.plans_built = counters.misses;
  s.plans_shared = counters.hits;
  const std::int64_t lookups = counters.hits + counters.misses;
  s.cache_hit_rate =
      lookups > 0
          ? static_cast<double>(counters.hits) / static_cast<double>(lookups)
          : 0.0;
  return s;
}

SolverResult SolverService::aborted_result(const JobState& job,
                                           AbortReason reason,
                                           int attempts) const {
  SolverResult result;
  result.solver = job.req.solver;
  result.status = reason == AbortReason::kDeadlineExceeded
                      ? SolverStatus::kDeadlineExceeded
                      : SolverStatus::kCancelled;
  result.attempts = attempts;
  return result;
}

void SolverService::count_status(const SolverResult& result) {
  switch (result.status) {
    case SolverStatus::kOk:
      ++completed_;
      break;
    case SolverStatus::kFailed:
      ++failed_;
      break;
    case SolverStatus::kCancelled:
      ++cancelled_;
      break;
    case SolverStatus::kDeadlineExceeded:
      ++deadline_exceeded_;
      break;
    case SolverStatus::kRejected:
      ++rejected_;
      break;
  }
  if (result.attempts > 1) retried_ += result.attempts - 1;
}

SolverResult SolverService::run_job(JobState& job, NetworkPool& view) {
  int attempts = 0;
  for (;;) {
    // Pre-flight: a job cancelled or expired while it sat in the queue (or
    // between retry attempts) resolves without running a solver. Checked
    // without consuming round budget — the budget counts barriers only.
    if (!job.token.aborted() && job.has_deadline &&
        std::chrono::steady_clock::now() >= job.deadline) {
      job.token.request_cancel(AbortReason::kDeadlineExceeded);
    }
    if (job.token.aborted()) {
      return aborted_result(job, job.token.reason(), attempts);
    }
    ++attempts;
    try {
      DEC_FAULT_POINT_CTX("service.worker", &job.token);
      SolverResult result =
          execute_request(job.req, view.num_threads(), &view, &job.token);
      result.attempts = attempts;
      return result;
    } catch (const SolverAborted& aborted) {
      return aborted_result(job, aborted.reason(), attempts);
    } catch (const std::exception& e) {
      // Transient failures (injected chaos, allocation pressure) retry on
      // a freshly reset lease; everything else is permanent. The what()
      // string — not the exception — travels to the tenant.
      const bool transient =
          dynamic_cast<const TransientError*>(&e) != nullptr ||
          dynamic_cast<const std::bad_alloc*>(&e) != nullptr;
      if (!transient || attempts > job.opts.max_retries) {
        SolverResult result;
        result.solver = job.req.solver;
        result.status = SolverStatus::kFailed;
        result.error = e.what();
        result.attempts = attempts;
        return result;
      }
      std::this_thread::sleep_for(job.opts.retry_backoff * attempts);
    }
  }
}

void SolverService::worker_main() {
  // The worker's thread-confined view over the shared arena: the run states
  // it builds stay warm across this worker's jobs and die with the worker.
  NetworkPool view(shared_pool_);
  for (;;) {
    std::shared_ptr<JobState> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_not_empty_.wait(lock,
                         [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and fully drained
      // Pop the scheduler's pick: most urgent class, EDF within it,
      // arrival order on ties (the ReadyQueue invariant).
      job = *queue_.begin();
      queue_.erase(queue_.begin());
      ++in_flight_;
      const std::int64_t ns =
          ns_between(job->enqueued, std::chrono::steady_clock::now());
      ++waited_jobs_;
      wait_ns_total_ += ns;
      if (ns > wait_ns_max_) wait_ns_max_ = ns;
      job->queue_wait_ns = ns;
    }
    cv_not_full_.notify_one();

    SolverResult result = run_job(*job, view);
    result.queue_wait_ns = job->queue_wait_ns;
    result.e2e_latency_ns =
        ns_between(job->enqueued, std::chrono::steady_clock::now());
    // Count the job before satisfying its future (a tenant reading stats()
    // right after future.get() must see it), but keep it in flight until
    // the future is satisfied (drain() returning must imply every future
    // is ready).
    {
      std::unique_lock<std::mutex> lock(mu_);
      count_status(result);
    }
    job->promise.set_value(std::move(result));
    {
      std::unique_lock<std::mutex> lock(mu_);
      live_.erase(job->id);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void SolverService::watchdog_main() {
  // The sweep runs over a snapshot of the live set, outside mu_: holding
  // the lock across the whole iteration would stall submit/pickup in
  // proportion to the live-job count every period. request_cancel is
  // thread-safe, and deadline/has_deadline are immutable after admission.
  std::vector<std::shared_ptr<JobState>> snapshot;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_watchdog_.wait_for(lock, cfg_.watchdog_period,
                          [this] { return stopping_; });
    if (stopping_) return;  // drain relies on barrier/pre-flight checks
    snapshot.clear();
    snapshot.reserve(live_.size());
    for (const auto& [id, job] : live_) snapshot.push_back(job);
    lock.unlock();
    const auto now = std::chrono::steady_clock::now();
    for (const std::shared_ptr<JobState>& job : snapshot) {
      if (job->has_deadline && now >= job->deadline) {
        // Cooperative: the running solver observes the trip at its next
        // round barrier; a queued job resolves at pickup. This sweep is
        // what catches jobs sleeping *between* barriers (e.g. under
        // injected latency), where the barrier's own deadline check
        // cannot run.
        job->token.request_cancel(AbortReason::kDeadlineExceeded);
      }
    }
    snapshot.clear();  // drop job refs before re-acquiring the lock
    lock.lock();
  }
}

}  // namespace dec
