// solve_regular / solve_regular_sharded: one congest_edge_coloring call at a
// time through execute_request (eps 1, kPractical), each on a fresh arena as
// a one-shot library caller would, on a random 16-regular graph.
//
// About 99% of a solve's ~8.3k audited rounds are the Lemma 6.2 defective4
// stage, so the sim round path and the coloring defective node program are
// nearly the whole cost. The graph is sized so the run state (~2.6 MB of
// single narrow plane at 10^4 nodes x 16) is beyond a 2 MiB per-core L2 and a
// serial solve takes seconds. The sharded variant runs the same solve at one
// engine shard per core; its output is bit-identical by contract, so the
// difference isolates the thread-pool barrier and per-shard audit merge.
#include <cstdio>
#include <optional>

#include "bench.hpp"
#include "graph/generators.hpp"
#include "sim/pool.hpp"

namespace perfbench {

using namespace dec;

namespace {

constexpr int kDegree = 16;
constexpr double kEps = 1.0;
constexpr NodeId kNodes = 10000;
constexpr NodeId kSmokeNodes = 600;
constexpr int kSetupReps = 9;

// Lemma 6.2's refine stage is a local search whose sweep count depends on
// the input: at this size 3 of 4 random 16-regular graphs stabilize after 3
// sweeps (~8.3k rounds) and the rest after 4 (~11.0k rounds). Drawing the
// graph seed freely would make solve time and rounds bimodal across
// benchmark seeds, so full-size runs draw from these generator seeds, the
// first 48 screened at this size with the refine stage needing 3 sweeps.
// A change that alters the sweep count still shows in `rounds`.
constexpr std::uint64_t kGraphSeeds[] = {
    1,  4,  7,  8,  9,  10, 11, 13, 14, 15, 16, 17, 19, 21, 22, 23, 24, 25,
    26, 27, 28, 31, 32, 33, 34, 35, 36, 37, 38, 39, 41, 42, 43, 44, 47, 48};

std::uint64_t graph_seed(const Options& opt) {
  if (opt.smoke) return opt.seed;
  constexpr std::size_t kCount = sizeof(kGraphSeeds) / sizeof(kGraphSeeds[0]);
  return kGraphSeeds[splitmix64(opt.seed) % kCount];
}

}  // namespace

Report run_solve(const Options& opt, bool sharded) {
  Report report;
  const int shards = sharded ? resolve_num_threads(0) : 1;
  const NodeId n = opt.smoke ? kSmokeNodes : kNodes;
  const std::uint64_t gseed = graph_seed(opt);

  std::shared_ptr<const Graph> g;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    g.reset();
    const auto t0 = Clock::now();
    const ScopedSpan span("graph.generate");
    Rng rng(gseed);
    g = std::make_shared<const Graph>(gen::random_regular(n, kDegree, rng));
    setup_s.push_back(seconds_since(t0));
  }
  const SolverRequest req =
      make_congest_request(g, {kEps, ParamMode::kPractical});
  std::printf("%s: n=%d delta=%d graph_seed=%llu engine_shards=%d\n",
              sharded ? "solve_regular_sharded" : "solve_regular",
              static_cast<int>(n), kDegree,
              static_cast<unsigned long long>(gseed), shards);

  // Measured solves. A traced run alternates untraced and traced solves for
  // half its time (their ratio is the tracing overhead), then probes.
  const double budget = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  std::vector<double> solve_s, traced_s, untraced_s, check_s;
  std::optional<SolverResult> first;
  const auto start = Clock::now();
  for (int i = 0; i < 2 || seconds_since(start) < budget; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    tracer().set_enabled(traced);
    const auto t0 = Clock::now();
    SolverResult r;
    {
      const ScopedSpan span("core.execute_request", static_cast<std::uint64_t>(i) + 1);
      r = execute_request(req, shards, nullptr);
    }
    const double t = seconds_since(t0);
    tracer().set_enabled(opt.trace);
    solve_s.push_back(t);
    (traced ? traced_s : untraced_s).push_back(t);

    // Checks run outside the timed call.
    ++report.attempted;
    const auto c0 = Clock::now();
    std::string err;
    {
      const ScopedSpan span("graph.check", static_cast<std::uint64_t>(i) + 1);
      err = certify(req, r);
    }
    check_s.push_back(seconds_since(c0));
    if (err.empty() && first && !identical(*first, r)) {
      err = "solve differs from the run's first solve";
    }
    if (!err.empty()) {
      ++report.failed;
      report.fail(err);
    }
    if (!first) first = std::move(r);
  }
  const std::int64_t rounds = result_rounds(*first);
  const int palette = result_palette(*first);
  // Equal digests across solve_regular and solve_regular_sharded at one
  // seed pin the engine contract (colors, rounds, ledger breakdown).
  std::printf("  digest=%016llx rounds=%lld palette=%d bound=%.0f\n",
              static_cast<unsigned long long>(digest(*first)),
              static_cast<long long>(rounds), palette,
              (8.0 + kEps) * g->max_degree());
  std::printf("  solve times (s):");
  for (const double t : solve_s) std::printf(" %.3f", t);
  std::printf("\n");

  if (!opt.trace) {
    double total_s = 0.0;
    for (const double t : solve_s) total_s += t;
    report.add("setup_s", median(setup_s), "s");
    report.add("ok_frac",
               static_cast<double>(report.attempted - report.failed) /
                   static_cast<double>(report.attempted),
               "ratio");
    report.add("jobs_per_s",
               static_cast<double>(report.attempted - report.failed) / total_s,
               "1/s");
    std::vector<double> ms;
    for (const double t : solve_s) ms.push_back(t * 1e3);
    report.add("latency_p50_ms", median(ms), "ms");
    report.add("latency_p99_ms", quantile(ms, 0.99), "ms");
    report.add("solve_s", median(solve_s), "s");
    report.add("rounds", static_cast<double>(rounds), "count");
    report.add("palette", palette, "count");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return report;
  }

  // Service layer for one big job: the same solve through a one-worker
  // service at the workload's shard count.
  {
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.queue_capacity = 4;
    cfg.engine_threads = shards;
    SolverService service(cfg);
    JobTiming timing;
    const SolverResult r = run_job(service, req, {}, 0, timing);
    if (!identical(*first, r)) report.fail("service solve differs");
    ServiceSamples samples;
    samples.add(r, timing);
    service.shutdown();
    samples.report(report);
    report_service_stats(service.stats(), report);
  }
  // Registry and coloring on one warm view: the level-0 coloring stages
  // plan the graph and leave run states, then a pooled solve reuses them.
  {
    SharedNetworkPool shared(shards);
    NetworkPool view(shared);
    probe_coloring(*g, view, report);
    const auto t0 = Clock::now();
    SolverResult r;
    {
      const ScopedSpan span("registry.execute");
      r = execute_request(req, shards, &view);
    }
    report.add("registry.execute_ms.congest", seconds_since(t0) * 1e3, "ms");
    if (!identical(*first, r)) report.fail("pooled solve differs");
  }
  // The other solver kinds have no instance in this workload; they are
  // timed on the service catalogue and expected flat here.
  {
    std::vector<SolverRequest> others;
    for (const SolverRequest& t : build_templates(kCatalogSeed, kTenants)) {
      if (t.solver != "congest_edge_coloring") others.push_back(t);
    }
    SharedNetworkPool shared(1);
    NetworkPool view(shared);
    time_requests(others, view, report);
  }
  probe_pool({}, *g, shards, report);
  probe_sim(*g, shards, opt.smoke, report);
  report_ledger(*first, report);
  report.add("graph.generate_s", median(setup_s), "s");
  report.add("graph.check_s", median(check_s), "s");
  report.add("trace.overhead_ratio", median(traced_s) / median(untraced_s),
             "ratio");
  return report;
}

}  // namespace perfbench
