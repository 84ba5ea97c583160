// Service load driver: the SolverService under a zipfian multi-tenant job
// stream, reporting the latency distribution the scheduler actually
// delivers (not a microbench of one solver).
//
// Shape skew is the point: each of --tenants tenants owns three request
// templates (congest / bipartite / token dropping on its own graphs), and
// jobs pick their tenant from a zipf(s) distribution — a few hot tenants
// dominate, so the shared topology cache should serve most plans
// (cache-share counters land in the JSON next to the percentiles). Job
// priorities and deadlines are mixed in deterministically per job index, so
// the run exercises the PR 8 scheduler: strict classes, EDF, and the
// deadline-bounded blocking submit.
//
// Two loop shapes:
//   --mode closed (default): --concurrency driver threads, each submitting
//     its next job only after its previous one resolved (think: N synchronous
//     tenants). Latency here is queue wait + service time under steady load.
//   --mode open: one thread paces arrivals at --rate jobs/sec regardless of
//     completions (think: external traffic). Overload shows up as growing
//     queue waits and (with deadlines) submit timeouts instead of driver
//     backoff.
//
// Every job is generated from (seed, job index) alone, so the stream is
// identical across runs, modes, and thread interleavings; with --verify 1
// (default) each kOk result is checked bit-identical to a direct
// execute_request() reference for its template — the sanitizer CI smoke
// runs rely on that check.
//
// Output: a "kind": "service_load" JSON (latency/queue-wait summaries in
// ms, throughput, status and cache counters) to --out, console table to
// stdout. bench/run_benches.sh BENCH_SERVICE=1 runs this and diffs the
// percentiles against the previous run via compare_benches.py.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/solver_registry.hpp"
#include "graph/generators.hpp"
#include "service/solver_service.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace dec {
namespace {

struct Config {
  int jobs = 8000;
  int tenants = 12;
  int workers = 4;
  std::size_t queue_capacity = 64;
  std::string mode = "closed";
  int concurrency = 16;     // closed loop: in-flight driver threads
  double rate = 4000.0;     // open loop: arrivals per second
  double zipf_s = 1.1;      // tenant skew exponent
  std::uint64_t seed = 42;
  int deadline_ms = 50;     // deadline attached to every 4th job; 0 = never
  int verify = 1;
  std::string out;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--jobs N] [--tenants N] [--workers N] [--queue N]\n"
      "          [--mode closed|open] [--concurrency N] [--rate JOBS_PER_S]\n"
      "          [--zipf-s S] [--seed N] [--deadline-ms N] [--verify 0|1]\n"
      "          [--out FILE.json]\n",
      argv0);
  std::exit(2);
}

Config parse_args(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (a == "--jobs") cfg.jobs = std::atoi(next());
    else if (a == "--tenants") cfg.tenants = std::atoi(next());
    else if (a == "--workers") cfg.workers = std::atoi(next());
    else if (a == "--queue")
      cfg.queue_capacity = static_cast<std::size_t>(std::atoll(next()));
    else if (a == "--mode") cfg.mode = next();
    else if (a == "--concurrency") cfg.concurrency = std::atoi(next());
    else if (a == "--rate") cfg.rate = std::atof(next());
    else if (a == "--zipf-s") cfg.zipf_s = std::atof(next());
    else if (a == "--seed")
      cfg.seed = static_cast<std::uint64_t>(std::atoll(next()));
    else if (a == "--deadline-ms") cfg.deadline_ms = std::atoi(next());
    else if (a == "--verify") cfg.verify = std::atoi(next());
    else if (a == "--out") cfg.out = next();
    else usage(argv[0]);
  }
  if (cfg.jobs <= 0 || cfg.tenants <= 0 || cfg.concurrency <= 0 ||
      (cfg.mode != "closed" && cfg.mode != "open") || cfg.rate <= 0.0) {
    usage(argv[0]);
  }
  return cfg;
}

// ------------------------------------------------------ deterministic stream

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double unit_double(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Zipf over [0, n): P(t) proportional to 1/(t+1)^s, sampled by inverse CDF.
/// n is a tenant count (tens), so the precomputed table is the whole cost.
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
    for (std::size_t t = 0; t < cdf_.size(); ++t) {
      if (u <= cdf_[t]) return static_cast<int>(t);
    }
    return static_cast<int>(cdf_.size()) - 1;
  }

 private:
  std::vector<double> cdf_;
};

constexpr int kKinds = 3;  // congest, bipartite, token dropping per tenant

/// Tenant templates, built once: jobs reference these shared requests (the
/// graphs are shared_ptrs, so no per-job graph build cost in the loop).
std::vector<SolverRequest> build_templates(const Config& cfg) {
  std::vector<SolverRequest> templates;
  templates.reserve(static_cast<std::size_t>(cfg.tenants * kKinds));
  for (int t = 0; t < cfg.tenants; ++t) {
    Rng rng(cfg.seed * 1000003ull + static_cast<std::uint64_t>(t));
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

    auto game = std::make_shared<const Digraph>(
        layered_game(3 + t % 2, 8, 3, rng));
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

struct JobPlan {
  int template_index;
  SubmitOptions opts;
};

/// Everything about job i follows from (seed, i): tenant via zipf, kind,
/// priority (20/60/20), deadline on every 4th job.
JobPlan plan_job(const Config& cfg, const ZipfTable& zipf, int i) {
  const std::uint64_t h =
      splitmix64(cfg.seed ^ (0xabcdull + static_cast<std::uint64_t>(i)));
  const int tenant = zipf.sample(unit_double(h));
  const int kind = static_cast<int>(splitmix64(h) % kKinds);
  JobPlan plan;
  plan.template_index = tenant * kKinds + kind;
  const std::uint64_t p = splitmix64(h ^ 0x5bd1e995ull) % 10;
  plan.opts.priority = p < 2   ? Priority::kHigh
                       : p < 8 ? Priority::kNormal
                               : Priority::kLow;
  if (cfg.deadline_ms > 0 && i % 4 == 3) {
    plan.opts.deadline = std::chrono::milliseconds(cfg.deadline_ms);
  }
  return plan;
}

// ------------------------------------------------------------ verification

auto congest_key(const CongestColoringResult& r) {
  return std::tuple(r.colors, r.palette, r.rounds, r.levels, r.tail_degree);
}

auto bipartite_key(const BipartiteColoringResult& r) {
  return std::tuple(r.colors, r.palette, r.rounds, r.levels,
                    r.leaf_degree_bound, r.chi);
}

auto token_key(const TokenDroppingResult& r) {
  return std::tuple(r.tokens, r.edge_passive, r.phases, r.rounds,
                    r.tokens_moved, r.max_message_bits);
}

bool identical(const SolverResult& ref, const SolverResult& got) {
  if (ref.output.index() != got.output.index()) return false;
  if (const auto* r = std::get_if<CongestColoringResult>(&ref.output)) {
    if (congest_key(*r) !=
        congest_key(std::get<CongestColoringResult>(got.output)))
      return false;
  } else if (const auto* r =
                 std::get_if<BipartiteColoringResult>(&ref.output)) {
    if (bipartite_key(*r) !=
        bipartite_key(std::get<BipartiteColoringResult>(got.output)))
      return false;
  } else if (const auto* r = std::get_if<TokenDroppingResult>(&ref.output)) {
    if (token_key(*r) != token_key(std::get<TokenDroppingResult>(got.output)))
      return false;
  }
  return ref.ledger.breakdown() == got.ledger.breakdown();
}

// --------------------------------------------------------------- the drive

struct DriveResult {
  std::vector<double> latency_ms;
  std::vector<double> queue_wait_ms;
  std::int64_t ok = 0;
  std::int64_t deadline_exceeded = 0;
  std::int64_t rejected = 0;
  std::int64_t other = 0;        // cancelled/failed: should stay 0
  std::int64_t verified = 0;
  std::int64_t mismatches = 0;
  double wall_seconds = 0.0;
};

void record(const SolverResult& got, const SolverResult* ref,
            DriveResult& out) {
  out.latency_ms.push_back(static_cast<double>(got.e2e_latency_ns) / 1e6);
  switch (got.status) {
    case SolverStatus::kOk:
      ++out.ok;
      out.queue_wait_ms.push_back(static_cast<double>(got.queue_wait_ns) /
                                  1e6);
      if (ref != nullptr) {
        ++out.verified;
        if (!identical(*ref, got)) ++out.mismatches;
      }
      break;
    case SolverStatus::kDeadlineExceeded:
      ++out.deadline_exceeded;
      break;
    case SolverStatus::kRejected:
      ++out.rejected;
      break;
    default:
      ++out.other;
      break;
  }
}

DriveResult drive(const Config& cfg, SolverService& service,
                  const std::vector<SolverRequest>& templates,
                  const std::vector<SolverResult>& refs) {
  const ZipfTable zipf(cfg.tenants, cfg.zipf_s);
  const auto ref_for = [&](const JobPlan& plan) -> const SolverResult* {
    return refs.empty()
               ? nullptr
               : &refs[static_cast<std::size_t>(plan.template_index)];
  };
  DriveResult total;
  const auto start = std::chrono::steady_clock::now();

  if (cfg.mode == "closed") {
    // N driver threads, each synchronous: submit, wait, repeat. The shared
    // counter hands out job indices; the stream content is index-derived,
    // so the interleaving only affects timing, never the job set.
    std::atomic<int> next{0};
    std::vector<DriveResult> per_thread(
        static_cast<std::size_t>(cfg.concurrency));
    std::vector<std::thread> drivers;
    drivers.reserve(static_cast<std::size_t>(cfg.concurrency));
    for (int d = 0; d < cfg.concurrency; ++d) {
      drivers.emplace_back([&, d] {
        DriveResult& mine = per_thread[static_cast<std::size_t>(d)];
        for (;;) {
          const int i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= cfg.jobs) break;
          const JobPlan plan = plan_job(cfg, zipf, i);
          JobTicket t = service.submit(
              templates[static_cast<std::size_t>(plan.template_index)],
              plan.opts);
          record(t.result.get(), ref_for(plan), mine);
        }
      });
    }
    for (std::thread& d : drivers) d.join();
    for (DriveResult& mine : per_thread) {
      total.latency_ms.insert(total.latency_ms.end(),
                              mine.latency_ms.begin(), mine.latency_ms.end());
      total.queue_wait_ms.insert(total.queue_wait_ms.end(),
                                 mine.queue_wait_ms.begin(),
                                 mine.queue_wait_ms.end());
      total.ok += mine.ok;
      total.deadline_exceeded += mine.deadline_exceeded;
      total.rejected += mine.rejected;
      total.other += mine.other;
      total.verified += mine.verified;
      total.mismatches += mine.mismatches;
    }
  } else {
    // Open loop: pace arrivals at cfg.rate regardless of completions.
    // submit() backpressure (deadline-bounded for deadlined jobs) is part
    // of the measured behavior; futures are collected afterwards.
    const auto interarrival = std::chrono::nanoseconds(
        static_cast<std::int64_t>(1e9 / cfg.rate));
    std::vector<std::pair<JobTicket, const SolverResult*>> pending;
    pending.reserve(static_cast<std::size_t>(cfg.jobs));
    auto next_arrival = std::chrono::steady_clock::now();
    for (int i = 0; i < cfg.jobs; ++i) {
      std::this_thread::sleep_until(next_arrival);
      next_arrival += interarrival;
      const JobPlan plan = plan_job(cfg, zipf, i);
      JobTicket t = service.submit(
          templates[static_cast<std::size_t>(plan.template_index)],
          plan.opts);
      pending.emplace_back(std::move(t), ref_for(plan));
    }
    for (auto& [ticket, ref] : pending) {
      record(ticket.result.get(), ref, total);
    }
  }

  total.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return total;
}

// ------------------------------------------------------------------ output

void write_summary(std::FILE* f, const char* key, const Summary& s,
                   const char* trail) {
  std::fprintf(f,
               "  \"%s\": {\"count\": %zu, \"min\": %.6f, \"max\": %.6f, "
               "\"mean\": %.6f, \"p50\": %.6f, \"p95\": %.6f, "
               "\"p99\": %.6f}%s\n",
               key, s.count, s.min, s.max, s.mean, s.p50, s.p95, s.p99,
               trail);
}

int write_json(const Config& cfg, const DriveResult& r,
               const Summary& latency, const Summary& queue_wait,
               const ServiceStats& stats, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"kind\": \"service_load\",\n");
  std::fprintf(
      f,
      "  \"config\": {\"jobs\": %d, \"tenants\": %d, \"workers\": %d, "
      "\"queue_capacity\": %zu, \"mode\": \"%s\", \"concurrency\": %d, "
      "\"rate\": %.1f, \"zipf_s\": %.3f, \"seed\": %llu, "
      "\"deadline_ms\": %d},\n",
      cfg.jobs, cfg.tenants, cfg.workers, cfg.queue_capacity,
      cfg.mode.c_str(), cfg.concurrency, cfg.rate, cfg.zipf_s,
      static_cast<unsigned long long>(cfg.seed), cfg.deadline_ms);
  write_summary(f, "latency_ms", latency, ",");
  write_summary(f, "queue_wait_ms", queue_wait, ",");
  std::fprintf(f, "  \"throughput_jobs_per_sec\": %.2f,\n",
               r.wall_seconds > 0
                   ? static_cast<double>(r.ok) / r.wall_seconds
                   : 0.0);
  std::fprintf(f,
               "  \"statuses\": {\"ok\": %lld, \"deadline_exceeded\": %lld, "
               "\"rejected\": %lld, \"other\": %lld, "
               "\"submit_timeouts\": %lld},\n",
               static_cast<long long>(r.ok),
               static_cast<long long>(r.deadline_exceeded),
               static_cast<long long>(r.rejected),
               static_cast<long long>(r.other),
               static_cast<long long>(stats.submit_timeouts));
  std::fprintf(f,
               "  \"cache\": {\"plans_built\": %lld, \"plans_shared\": %lld, "
               "\"hit_rate\": %.6f},\n",
               static_cast<long long>(stats.plans_built),
               static_cast<long long>(stats.plans_shared),
               stats.cache_hit_rate);
  std::fprintf(f, "  \"verified_jobs\": %lld,\n",
               static_cast<long long>(r.verified));
  std::fprintf(f, "  \"mismatches\": %lld\n",
               static_cast<long long>(r.mismatches));
  std::fprintf(f, "}\n");
  std::fclose(f);
  return 0;
}

int run(const Config& cfg) {
  const std::vector<SolverRequest> templates = build_templates(cfg);

  // Direct-call references, one per template (bit-identity oracle).
  std::vector<SolverResult> refs;
  if (cfg.verify != 0) {
    refs.reserve(templates.size());
    for (const SolverRequest& req : templates) {
      refs.push_back(execute_request(req, 1, nullptr));
    }
  }

  ServiceConfig scfg;
  scfg.workers = cfg.workers;
  scfg.queue_capacity = cfg.queue_capacity;
  SolverService service(scfg);
  const DriveResult r = drive(cfg, service, templates, refs);
  const ServiceStats stats = service.stats();

  const Summary latency = summarize(r.latency_ms);
  const Summary queue_wait = summarize(r.queue_wait_ms);
  const double throughput =
      r.wall_seconds > 0 ? static_cast<double>(r.ok) / r.wall_seconds : 0.0;

  std::printf("service_load: mode=%s jobs=%d tenants=%d zipf_s=%.2f "
              "workers=%d queue=%zu\n",
              cfg.mode.c_str(), cfg.jobs, cfg.tenants, cfg.zipf_s,
              cfg.workers, cfg.queue_capacity);
  std::printf("  ok=%lld deadline_exceeded=%lld rejected=%lld other=%lld "
              "submit_timeouts=%lld\n",
              static_cast<long long>(r.ok),
              static_cast<long long>(r.deadline_exceeded),
              static_cast<long long>(r.rejected),
              static_cast<long long>(r.other),
              static_cast<long long>(stats.submit_timeouts));
  std::printf("  throughput=%.1f jobs/s over %.2f s\n", throughput,
              r.wall_seconds);
  std::printf("  latency_ms    p50=%.3f p95=%.3f p99=%.3f max=%.3f\n",
              latency.p50, latency.p95, latency.p99, latency.max);
  std::printf("  queue_wait_ms p50=%.3f p95=%.3f p99=%.3f max=%.3f\n",
              queue_wait.p50, queue_wait.p95, queue_wait.p99, queue_wait.max);
  std::printf("  cache: built=%lld shared=%lld hit_rate=%.3f\n",
              static_cast<long long>(stats.plans_built),
              static_cast<long long>(stats.plans_shared),
              stats.cache_hit_rate);
  if (cfg.verify != 0) {
    std::printf("  verify: %lld kOk results checked, %lld mismatches\n",
                static_cast<long long>(r.verified),
                static_cast<long long>(r.mismatches));
  }

  if (r.other != 0) {
    std::fprintf(stderr,
                 "error: %lld jobs resolved cancelled/failed — the driver "
                 "submits none of those\n",
                 static_cast<long long>(r.other));
    return 1;
  }
  if (r.mismatches != 0) {
    std::fprintf(stderr,
                 "error: %lld scheduled results differ from direct calls\n",
                 static_cast<long long>(r.mismatches));
    return 1;
  }
  if (!cfg.out.empty()) {
    return write_json(cfg, r, latency, queue_wait, stats, cfg.out);
  }
  return 0;
}

}  // namespace
}  // namespace dec

int main(int argc, char** argv) {
  return dec::run(dec::parse_args(argc, argv));
}
