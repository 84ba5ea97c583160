// service_zipf: a closed loop of synchronous clients against a SolverService.
//
// The job stream is bench/bench_service_load.cpp's: each
// job picks its tenant from zipf(1.1) over 12 tenants and one of the
// tenant's three templates, priorities are mixed 20/60/20 and every 4th job
// carries a 50 ms deadline. Everything about job i follows from (seed, i).
// Jobs are cache-resident (~0.1 ms), so per-job cost is service admission,
// the ready queue, the future hand-off and the shared pool's plan cache and
// lease path, not the round kernel.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "core/token_dropping.hpp"
#include "graph/generators.hpp"
#include "sim/pool.hpp"

namespace perfbench {

using namespace dec;

namespace {

constexpr int kKinds = 3;  // congest, bipartite, token dropping per tenant
constexpr double kZipfS = 1.1;
constexpr auto kDeadline = std::chrono::milliseconds(50);
constexpr int kSetupReps = 9;

double unit_double(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Zipf over [0, n) by inverse CDF: P(t) proportional to 1/(t+1)^s.
class ZipfTable {
 public:
  ZipfTable(int n, double s) : cdf_(static_cast<std::size_t>(n)) {
    double total = 0.0;
    for (int t = 0; t < n; ++t) {
      total += 1.0 / std::pow(static_cast<double>(t + 1), s);
      cdf_[static_cast<std::size_t>(t)] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  int sample(double u) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(std::min<std::ptrdiff_t>(
        it - cdf_.begin(), static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  }

 private:
  std::vector<double> cdf_;
};

struct JobPlan {
  std::size_t template_index;
  SubmitOptions opts;
};

JobPlan plan_job(std::uint64_t seed, const ZipfTable& zipf, std::int64_t i) {
  const std::uint64_t h =
      splitmix64(seed ^ (0xabcdull + static_cast<std::uint64_t>(i)));
  const int tenant = zipf.sample(unit_double(h));
  const int kind = static_cast<int>(splitmix64(h) % kKinds);
  JobPlan plan;
  plan.template_index = static_cast<std::size_t>(tenant * kKinds + kind);
  const std::uint64_t p = splitmix64(h ^ 0x5bd1e995ull) % 10;
  plan.opts.priority = p < 2   ? Priority::kHigh
                       : p < 8 ? Priority::kNormal
                               : Priority::kLow;
  if (i % 4 == 3) plan.opts.deadline = kDeadline;
  return plan;
}

/// What the measured loop needs; rebuilt from scratch by each set-up
/// repetition (set-up time is the median of kSetupReps).
struct Setup {
  std::vector<SolverRequest> templates;
  std::vector<SolverResult> refs;  // direct execute_request per template
  std::unique_ptr<SolverService> service;
  double generate_s = 0.0;
  double check_s = 0.0;
};

std::unique_ptr<Setup> set_up(int workers, Report& report) {
  auto s = std::make_unique<Setup>();
  const auto t0 = Clock::now();
  {
    const ScopedSpan span("graph.generate");
    s->templates = build_templates(kCatalogSeed, kTenants);
  }
  s->generate_s = seconds_since(t0);
  for (const SolverRequest& req : s->templates) {
    const ScopedSpan span("registry.reference");
    s->refs.push_back(execute_request(req));
  }
  const auto t1 = Clock::now();
  for (std::size_t i = 0; i < s->templates.size(); ++i) {
    const ScopedSpan span("graph.check");
    const std::string err = certify(s->templates[i], s->refs[i]);
    if (!err.empty()) report.fail("template " + std::to_string(i) + ": " + err);
  }
  s->check_s = seconds_since(t1);
  ServiceConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = 64;
  cfg.engine_threads = 1;
  s->service = std::make_unique<SolverService>(cfg);
  // Warm pass: plans and run states exist before timing, as in a service
  // that has been up for a while.
  for (const SolverRequest& req : s->templates) {
    s->service->submit(req).result.get();
  }
  return s;
}

/// Latency samples kept per client and stream (Reservoir): enough for a
/// p99 with hundreds of samples beyond it, fixed so memory stays flat.
constexpr std::size_t kSamplesPerClient = std::size_t{1} << 16;

/// One client's tallies, pooled after the clients join.
struct Tally {
  Tally(std::uint64_t seed, bool trace, std::size_t windows)
      : latency_ms(kSamplesPerClient, seed),
        exec_ms(kSamplesPerClient, seed + 1),
        traced_ms(trace ? kSamplesPerClient : 0, seed + 2),
        untraced_ms(trace ? kSamplesPerClient : 0, seed + 3),
        ok_per_window(windows, 0) {}

  std::int64_t attempted = 0;
  std::int64_t failed = 0;  // non-kOk statuses and mismatched outputs
  std::int64_t mismatches = 0;
  Reservoir latency_ms;  // every attempted job
  Reservoir exec_ms;     // kOk: service-stamped execution time
  Reservoir traced_ms, untraced_ms;  // kOk latency by trace state
  std::vector<std::int64_t> ok_per_window;  // kOk completions per window
  ServiceSamples layers;                    // traced kOk jobs
};

std::vector<double> pooled(const std::vector<Tally>& tallies,
                           Reservoir Tally::*field) {
  std::vector<double> all;
  for (const Tally& t : tallies) {
    const std::vector<double> v = (t.*field).values();
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

void client(const Setup& s, std::uint64_t seed, const ZipfTable& zipf,
            std::atomic<std::int64_t>& next, Clock::time_point start,
            Clock::time_point end, Clock::duration window,
            double failed_latency_ms, Tally& tally) {
  while (Clock::now() < end) {
    const std::int64_t i = next.fetch_add(1, std::memory_order_relaxed);
    const JobPlan plan = plan_job(seed, zipf, i);
    const bool traced = tracer().enabled();
    JobTiming timing;
    const SolverResult got =
        run_job(*s.service, s.templates[plan.template_index], plan.opts,
                static_cast<std::uint64_t>(i) + 1, timing);
    const auto done = Clock::now();
    ++tally.attempted;
    bool ok = got.status == SolverStatus::kOk;
    if (ok && !identical(s.refs[plan.template_index], got)) {
      ok = false;
      ++tally.mismatches;
    }
    if (!ok) {
      // A failed job counts as missing every latency limit.
      ++tally.failed;
      tally.latency_ms.add(failed_latency_ms);
      continue;
    }
    tally.latency_ms.add(timing.latency_ms);
    (traced ? tally.traced_ms : tally.untraced_ms).add(timing.latency_ms);
    tally.exec_ms.add(
        static_cast<double>(got.e2e_latency_ns - got.queue_wait_ns) / 1e6);
    const auto w = static_cast<std::size_t>((done - start) / window);
    if (w < tally.ok_per_window.size()) ++tally.ok_per_window[w];
    if (traced) tally.layers.add(got, timing);
  }
}

}  // namespace

std::vector<SolverRequest> build_templates(std::uint64_t seed, int tenants) {
  std::vector<SolverRequest> templates;
  templates.reserve(static_cast<std::size_t>(tenants * kKinds));
  for (int t = 0; t < tenants; ++t) {
    Rng rng(seed * 1000003ull + static_cast<std::uint64_t>(t));
    // Hot tenants (low t) get slightly larger instances: skew in work, not
    // just in arrival counts.
    const int n = 40 + 4 * (t % 5);
    auto g = std::make_shared<const Graph>(gen::gnp(n, 0.12, rng));
    templates.push_back(make_congest_request(std::move(g), {1.0}));

    auto bg = std::make_shared<const BipartiteGraph>(
        gen::random_bipartite(16 + t % 6, 14 + t % 4, 0.18, rng));
    std::shared_ptr<const Graph> bgraph(bg, &bg->graph);
    BipartiteColoringJob bj;
    bj.parts = bg->parts;
    templates.push_back(make_bipartite_request(bgraph, std::move(bj)));

    auto game =
        std::make_shared<const Digraph>(layered_game(3 + t % 2, 8, 3, rng));
    TokenDroppingJob tj;
    tj.params.k = 10 + t % 4;
    tj.params.delta = 1;
    tj.params.alpha.assign(static_cast<std::size_t>(game->num_nodes()), 2);
    tj.initial_tokens.assign(static_cast<std::size_t>(game->num_nodes()), 5);
    templates.push_back(
        make_token_dropping_request(std::move(game), std::move(tj)));
  }
  return templates;
}

SolverResult run_job(SolverService& service, const SolverRequest& req,
                     const SubmitOptions& opts, std::uint64_t request_id,
                     JobTiming& timing) {
  const ScopedSpan job("service.job", request_id);
  timing.start = Clock::now();
  JobTicket ticket;
  {
    const ScopedSpan span("service.submit", request_id);
    ticket = service.submit(req, opts);
  }
  const auto submitted = Clock::now();
  SolverResult got;
  {
    const ScopedSpan span("service.get", request_id);
    got = ticket.result.get();
  }
  const auto done = Clock::now();
  timing.latency_ms =
      std::chrono::duration<double, std::milli>(done - timing.start).count();
  timing.submit_us =
      std::chrono::duration<double, std::micro>(submitted - timing.start)
          .count();
  if (job.id() != 0 && got.status == SolverStatus::kOk) {
    // The service stamps queue wait and end-to-end time from submit() entry;
    // placed on the client's clock from the same instant.
    Tracer& t = tracer();
    const std::int64_t s0 = t.to_ns(timing.start);
    const std::int64_t queued = s0 + got.queue_wait_ns;
    const std::int64_t resolved = s0 + got.e2e_latency_ns;
    t.record({"service.queue_wait", t.next_id(), job.id(), request_id, s0,
              queued});
    t.record({"service.exec", t.next_id(), job.id(), request_id, queued,
              resolved});
    t.record({"service.handoff", t.next_id(), job.id(), request_id, resolved,
              t.to_ns(done)});
  }
  return got;
}

void ServiceSamples::add(const SolverResult& r, const JobTiming& t) {
  submit_us.push_back(t.submit_us);
  queue_ms.push_back(static_cast<double>(r.queue_wait_ns) / 1e6);
  exec_ms.push_back(static_cast<double>(r.e2e_latency_ns - r.queue_wait_ns) /
                    1e6);
  handoff_us.push_back(t.latency_ms * 1e3 -
                       static_cast<double>(r.e2e_latency_ns) / 1e3);
}

void ServiceSamples::merge(const ServiceSamples& o) {
  submit_us.insert(submit_us.end(), o.submit_us.begin(), o.submit_us.end());
  queue_ms.insert(queue_ms.end(), o.queue_ms.begin(), o.queue_ms.end());
  exec_ms.insert(exec_ms.end(), o.exec_ms.begin(), o.exec_ms.end());
  handoff_us.insert(handoff_us.end(), o.handoff_us.begin(),
                    o.handoff_us.end());
}

void ServiceSamples::report(Report& report) const {
  report.add("service.submit_us.p50", median(submit_us), "us");
  report.add("service.queue_wait_ms.p50", median(queue_ms), "ms");
  report.add("service.queue_wait_ms.p99", quantile(queue_ms, 0.99), "ms");
  report.add("service.exec_ms.p50", median(exec_ms), "ms");
  report.add("service.handoff_us.p50", median(handoff_us), "us");
  report.add("service.latency_samples", static_cast<double>(exec_ms.size()),
             "count");
}

void report_service_stats(const ServiceStats& stats, Report& report) {
  report.add("pool.plan_hit_rate", stats.cache_hit_rate, "ratio");
  report.add("pool.plans_built", static_cast<double>(stats.plans_built),
             "count");
  report.add("pool.parked_run_states",
             static_cast<double>(stats.parked_run_states), "count");
}

Report run_service_zipf(const Options& opt) {
  Report report;
  const int nproc = resolve_num_threads(0);
  // Thread budget: clients never exceed the cores, and workers x engine
  // shards (2 x 1) leave room for them.
  const int clients = std::min(4, nproc);
  const int workers = std::min(2, nproc);

  std::unique_ptr<Setup> s;
  std::vector<double> setup_s, generate_s, check_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();  // joins the previous repetition's service outside the timing
    const auto t0 = Clock::now();
    s = set_up(workers, report);
    setup_s.push_back(seconds_since(t0));
    generate_s.push_back(s->generate_s);
    check_s.push_back(s->check_s);
  }
  std::printf("service_zipf: tenants=%d templates=%zu clients=%d workers=%d "
              "engine_shards=1 nproc=%d\n",
              kTenants, s->templates.size(), clients, workers, nproc);

  // Throughput is the median over windows of kOk completions, so one
  // stalled second does not move the figure.
  const double window_s = opt.seconds >= 4.0 ? 1.0 : opt.seconds / 4.0;
  const auto windows = static_cast<std::size_t>(opt.seconds / window_s);
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(window_s));
  const ZipfTable zipf(kTenants, kZipfS);
  std::atomic<std::int64_t> next{0};
  std::vector<Tally> tallies;
  for (int c = 0; c < clients; ++c) {
    tallies.emplace_back(opt.seed * 4 + static_cast<std::uint64_t>(c),
                         opt.trace, windows);
  }
  const auto start = Clock::now();
  const auto end = start + window * static_cast<std::int64_t>(windows);
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        client(*s, opt.seed, zipf, next, start, end, window,
               opt.seconds * 1e3, tallies[static_cast<std::size_t>(c)]);
      });
    }
    if (opt.trace) {
      // Alternate untraced and traced half-second segments; the latency
      // ratio between them is the tracing overhead.
      for (int seg = 0; Clock::now() < end; ++seg) {
        tracer().set_enabled(seg % 2 == 1);
        std::this_thread::sleep_until(
            std::min(end, Clock::now() + std::chrono::milliseconds(500)));
      }
      tracer().set_enabled(true);
    }
  }  // jthreads join
  const double wall_s = seconds_since(start);
  s->service->shutdown();  // views park their run states
  const ServiceStats stats = s->service->stats();

  std::int64_t mismatches = 0;
  std::vector<double> ok_per_window(windows, 0.0);
  ServiceSamples layers;
  for (const Tally& t : tallies) {
    report.attempted += t.attempted;
    report.failed += t.failed;
    mismatches += t.mismatches;
    for (std::size_t w = 0; w < windows; ++w) {
      ok_per_window[w] += static_cast<double>(t.ok_per_window[w]);
    }
    layers.merge(t.layers);
  }
  const std::vector<double> latency_ms = pooled(tallies, &Tally::latency_ms);
  if (mismatches > 0) {
    report.fail(std::to_string(mismatches) +
                " results differ from the direct execute_request reference");
  }
  std::int64_t rounds = 0;
  int palette = 0;
  for (const SolverResult& r : s->refs) {
    rounds += result_rounds(r);
    palette += result_palette(r);
  }
  std::printf("  jobs=%lld failed=%lld (deadline %lld, rejected %lld, "
              "cancelled %lld, failed %lld, mismatched %lld) wall=%.2f s\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              static_cast<long long>(stats.deadline_exceeded),
              static_cast<long long>(stats.rejected),
              static_cast<long long>(stats.cancelled),
              static_cast<long long>(stats.failed),
              static_cast<long long>(mismatches), wall_s);
  std::printf("  latency over %lld jobs (%zu sampled): p50=%.4f ms "
              "p99=%.4f ms\n",
              static_cast<long long>(report.attempted), latency_ms.size(),
              median(latency_ms), quantile(latency_ms, 0.99));
  std::printf("  kOk per %.2f s window: min=%.0f median=%.0f max=%.0f\n",
              window_s, quantile(ok_per_window, 0.0), median(ok_per_window),
              quantile(ok_per_window, 1.0));

  if (!opt.trace) {
    report.add("setup_s", median(setup_s), "s");
    report.add("ok_frac",
               static_cast<double>(report.attempted - report.failed) /
                   static_cast<double>(
                       std::max<std::int64_t>(1, report.attempted)),
               "ratio");
    report.add("jobs_per_s", median(ok_per_window) / window_s, "1/s");
    report.add("latency_p50_ms", median(latency_ms), "ms");
    report.add("latency_p99_ms", quantile(latency_ms, 0.99), "ms");
    report.add("solve_s", median(pooled(tallies, &Tally::exec_ms)) / 1e3,
               "s");
    report.add("rounds", static_cast<double>(rounds), "count");
    report.add("palette", palette, "count");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return report;
  }

  // Traced run: the service layer from the traced segments, then the
  // per-layer probes on the tenant templates, with the largest congest
  // template standing in for "the solve graph".
  layers.report(report);
  report_service_stats(stats, report);
  std::size_t probe = 0;
  for (std::size_t i = 0; i < s->templates.size(); i += kKinds) {
    if (s->templates[i].graph->num_edges() >
        s->templates[probe].graph->num_edges()) {
      probe = i;
    }
  }
  const Graph& probe_graph = *s->templates[probe].graph;
  {
    SharedNetworkPool shared(1);
    NetworkPool view(shared);
    time_requests(s->templates, view, report);
  }
  probe_pool(s->templates, probe_graph, 1, report);
  probe_sim(probe_graph, 1, opt.smoke, report);
  {
    SharedNetworkPool shared(1);
    NetworkPool view(shared);
    probe_coloring(probe_graph, view, report);
  }
  report_ledger(s->refs[probe], report);
  report.add("graph.generate_s", median(generate_s), "s");
  report.add("graph.check_s", median(check_s), "s");
  report.add("trace.overhead_ratio",
             median(pooled(tallies, &Tally::traced_ms)) /
                 median(pooled(tallies, &Tally::untraced_ms)),
             "ratio");
  return report;
}

}  // namespace perfbench
