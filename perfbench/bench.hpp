// Shared pieces of the perfbench program: options, the metric report printed
// as the run's last line, the in-memory span tracer, and the layer probes
// both workload families use.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/solver_registry.hpp"
#include "graph/graph.hpp"
#include "service/solver_service.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;      // seconds-long inputs for the benchmark's own tests
  std::string trace_out;   // JSONL span dump of a traced run ("" = none)
};

/// What one run reports: the correctness verdict, attempted/failed
/// operation counts, and named metrics (end-to-end ones untraced,
/// per-layer ones traced). Printed as one JSON object on the last line.
struct Report {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record a failed check: the run is no longer correct.
  void fail(const std::string& what);
  std::string json() const;
};

// ------------------------------------------------------------------ stats

/// Linear-interpolation quantile (q in [0, 1]) of `v`; 0 for an empty
/// sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Peak resident set size of the process, from getrusage.
double peak_rss_mb();

/// Fixed-memory uniform sample of a stream (Algorithm R): the first `cap`
/// values, then value k replaces a random slot with probability cap/k.
/// Storage is allocated and touched up front, so a run's peak RSS does not
/// grow with the number of jobs it completes.
class Reservoir {
 public:
  Reservoir(std::size_t cap, std::uint64_t seed) : v_(cap, 0.0), rng_(seed) {}

  void add(double x);
  /// The sampled values (all of them while fewer than cap were seen).
  std::vector<double> values() const;

 private:
  std::vector<double> v_;
  std::uint64_t seen_ = 0;
  std::uint64_t rng_;
};

// ---------------------------------------------------------------- tracing

/// One recorded interval. Spans of one job or solve share `request`;
/// `parent` is the span that was open on the recording thread (0 = root).
struct Span {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t request;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// Process-wide span recorder. Spans go to per-thread buffers (no shared
/// lock on the recording path after a thread's first span) and stay in
/// memory until the run ends. Recording is off unless enabled, so the
/// untraced runs pay one relaxed load per span site.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::uint64_t next_id() {
    return ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  /// Nanoseconds on the tracer's clock (steady_clock since process start).
  std::int64_t now_ns() const { return to_ns(Clock::now()); }
  std::int64_t to_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  /// Append a finished span to the calling thread's buffer. Callers decide
  /// when a span starts whether it is recorded, so a span open while
  /// tracing is switched off still lands next to its children.
  void record(const Span& s);

  /// All recorded spans, merged across threads.
  std::vector<Span> spans() const;

  /// Write every span as one JSON object per line; false on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer& local_buffer();

  const Clock::time_point epoch_ = Clock::now();
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mu_;  // guards buffers_ (the list, not each buffer)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

Tracer& tracer();

/// RAII span around a call into a library layer. Nested scopes on one
/// thread become parent and child.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (0 when tracing was off at construction).
  std::uint64_t id() const { return on_ ? span_.id : 0; }

 private:
  Span span_{};
  bool on_ = false;
  std::uint64_t saved_parent_ = 0;
};

// --------------------------------------------------------- output checks

/// Independent check of a solver output against the paper's guarantee for
/// its request, using graph/properties only: congest colorings complete,
/// proper and within (8+eps)Δ colors; bipartite colorings complete and
/// proper; token dropping within Theorem 4.3's slack with tokens conserved.
/// Returns an empty string when the output passes, else what failed.
std::string certify(const dec::SolverRequest& req,
                    const dec::SolverResult& res);

/// True iff two results carry the same outputs, rounds and ledger
/// breakdown (the service's bit-identity contract).
bool identical(const dec::SolverResult& a, const dec::SolverResult& b);

/// FNV-1a digest of a result's outputs, rounds and ledger breakdown.
std::uint64_t digest(const dec::SolverResult& r);

/// Audited rounds and palette of a result (palette 0 for token dropping).
std::int64_t result_rounds(const dec::SolverResult& r);
int result_palette(const dec::SolverResult& r);

// ------------------------------------------------------------ layer probes

/// Per-layer probes shared by every workload's traced run. `templates` are
/// the service tenant templates (the fixed catalogue); `probe_graph` is
/// the graph the workload solves (the largest congest template on
/// service_zipf); `shards` is the workload's engine shard count.
///
/// registry.execute_ms.<kind>: execute_request per request on `view`,
/// after one warm-up call each, median per solver kind.
void time_requests(const std::vector<dec::SolverRequest>& requests,
                   dec::NetworkPool& view, Report& report);
/// pool.topology_{hit,miss}_us and pool.lease_us on the template shapes (on
/// `probe_graph` when `templates` is empty); sim.run_state_bytes_per_node
/// of a lease on `probe_graph`.
void probe_pool(const std::vector<dec::SolverRequest>& templates,
                const dec::Graph& probe_graph, int shards, Report& report);
/// sim.plan_ms, sim.round_us.{1shard,sharded}, sim.barrier_us.sharded.
void probe_sim(const dec::Graph& probe_graph, int shards, bool smoke,
               Report& report);
/// coloring.{linial,defective4}_s: the level-0 stages of the congest solve,
/// leasing from `view` (which they leave warm for the solve's shape).
void probe_coloring(const dec::Graph& probe_graph, dec::NetworkPool& view,
                    Report& report);
/// core.rounds.<component> from a solve's ledger.
void report_ledger(const dec::SolverResult& solve, Report& report);

// ---------------------------------------------------------- service jobs

/// Client-side timing of one service job.
struct JobTiming {
  Clock::time_point start;  // just before submit()
  double latency_ms = 0;    // submit() entry to get() return
  double submit_us = 0;     // time inside submit()
};

/// Submit one job and wait for it, inside spans service.job > service.submit
/// and service.get; when traced, the service-stamped queue wait, execution
/// and future hand-off are recorded as derived spans of the same job.
dec::SolverResult run_job(dec::SolverService& service,
                          const dec::SolverRequest& req,
                          const dec::SubmitOptions& opts,
                          std::uint64_t request_id, JobTiming& timing);

/// Service-layer samples of traced kOk jobs, reported as service.*.
struct ServiceSamples {
  std::vector<double> submit_us, queue_ms, exec_ms, handoff_us;

  void add(const dec::SolverResult& r, const JobTiming& t);
  void merge(const ServiceSamples& o);
  void report(Report& report) const;
};

/// pool.plan_hit_rate, pool.plans_built, pool.parked_run_states.
void report_service_stats(const dec::ServiceStats& stats, Report& report);

// -------------------------------------------------------------- workloads

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The service's tenant catalogue is fixed; the run seed drives the job
/// stream. Per-job work is set by the hot tenants' graphs: with a catalogue
/// drawn from the run seed, summed template rounds ranged over 4.4k-5.1k and
/// jobs_per_s spread 33% over five seeds, burying any real change.
constexpr std::uint64_t kCatalogSeed = 42;
constexpr int kTenants = 12;

/// Tenant templates of the service stream: 3 requests (congest, bipartite,
/// token dropping) for each of `tenants` tenants, on small graphs derived
/// from `seed`.
std::vector<dec::SolverRequest> build_templates(std::uint64_t seed,
                                                int tenants);

Report run_service_zipf(const Options& opt);
Report run_solve(const Options& opt, bool sharded);

}  // namespace perfbench
