// Multi-tenant solver service demo: many concurrent jobs, one shared arena.
//
//   build/example_coloring_service [tenants] [jobs_per_tenant]
//
// Simulates `tenants` clients each submitting a batch of mixed jobs —
// bipartite edge colorings, balanced orientations, defective 2-edge
// colorings, and token dropping games — to one SolverService. Tenants
// reuse a handful of graph shapes (as production traffic does), so the
// shared topology cache plans each shape once and every later job hits it;
// the printed service stats show the plans built vs shared, the cache hit
// rate, and the queue wait the bounded queue imposed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <future>
#include <memory>
#include <vector>

#include "core/solver_registry.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "service/solver_service.hpp"

int main(int argc, char** argv) {
  using namespace dec;
  const int tenants = argc > 1 ? std::atoi(argv[1]) : 4;
  const int jobs_per_tenant = argc > 2 ? std::atoi(argv[2]) : 6;

  // A small catalogue of shapes the tenants draw from — the service sees
  // each distinct shape many times across tenants.
  std::vector<std::shared_ptr<const BipartiteGraph>> shapes;
  for (int s = 0; s < 3; ++s) {
    Rng rng(100 + static_cast<std::uint64_t>(s));
    shapes.push_back(std::make_shared<const BipartiteGraph>(
        gen::random_bipartite(40 + 10 * s, 40, 0.12, rng)));
  }

  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 16;
  SolverService service(cfg);

  std::vector<JobTicket> tickets;
  // Graph each ticket's job ran on (null for digraph jobs), for validation.
  std::vector<std::shared_ptr<const Graph>> job_graph;
  for (int t = 0; t < tenants; ++t) {
    for (int j = 0; j < jobs_per_tenant; ++j) {
      const auto& bg = shapes[static_cast<std::size_t>((t + j) % 3)];
      std::shared_ptr<const Graph> g(bg, &bg->graph);
      job_graph.push_back(j % 4 == 3 ? nullptr : g);
      Rng rng(1000 + 17 * static_cast<std::uint64_t>(t) +
              static_cast<std::uint64_t>(j));
      switch (j % 4) {
        case 0: {
          BipartiteColoringJob job;
          job.parts = bg->parts;
          job.eps = 1.0;
          tickets.push_back(
              service.submit(make_bipartite_request(g, std::move(job))));
          break;
        }
        case 1: {
          BalancedOrientationJob job;
          job.parts = bg->parts;
          job.eta.assign(static_cast<std::size_t>(g->num_edges()), 0.0);
          for (auto& v : job.eta) v = 2.0 * rng.next_double() - 1.0;
          tickets.push_back(
              service.submit(make_orientation_request(g, std::move(job))));
          break;
        }
        case 2: {
          Defective2ECJob job;
          job.parts = bg->parts;
          job.lambda.assign(static_cast<std::size_t>(g->num_edges()), 0.5);
          job.eps = 1.0;
          tickets.push_back(
              service.submit(make_defective2ec_request(g, std::move(job))));
          break;
        }
        default: {
          auto game = std::make_shared<const Digraph>(
              layered_game(3, 8, 3, rng));
          TokenDroppingJob job;
          job.params.k = 10;
          job.params.delta = 1;
          job.params.alpha.assign(
              static_cast<std::size_t>(game->num_nodes()), 2);
          job.initial_tokens.assign(
              static_cast<std::size_t>(game->num_nodes()), 5);
          tickets.push_back(service.submit(
              make_token_dropping_request(std::move(game), std::move(job))));
          break;
        }
      }
    }
  }

  // A latecomer with an impossible deadline shows the failure taxonomy:
  // its future still resolves — with kDeadlineExceeded, not an exception.
  {
    const auto& bg = shapes[0];
    std::shared_ptr<const Graph> g(bg, &bg->graph);
    BalancedOrientationJob job;
    job.parts = bg->parts;
    job.eta.assign(static_cast<std::size_t>(g->num_edges()), 0.0);
    SubmitOptions opts;
    opts.round_budget = 2;  // a couple of round barriers, then abort
    JobTicket doomed =
        service.submit(make_orientation_request(g, std::move(job)), opts);
    const SolverResult r = doomed.result.get();
    std::printf("budgeted job resolved: %s\n", to_string(r.status));
  }

  std::int64_t total_rounds = 0;
  int colorings = 0, proper = 0, job_errors = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    // Every ticket's future is satisfied with a value; failures are data.
    const SolverResult r = tickets[i].result.get();
    if (r.status != SolverStatus::kOk) {
      ++job_errors;
      std::printf("job %zu %s: %s\n", i, to_string(r.status),
                  r.error.c_str());
      continue;
    }
    total_rounds += r.ledger.total();
    if (const auto* c = std::get_if<BipartiteColoringResult>(&r.output)) {
      ++colorings;
      if (is_complete_proper_edge_coloring(*job_graph[i], c->colors)) {
        ++proper;
      }
    }
  }

  const ServiceStats stats = service.stats();
  std::printf("service: %d tenants x %d jobs = %d total\n", tenants,
              jobs_per_tenant, tenants * jobs_per_tenant);
  std::printf("  completed        : %lld (failed %lld, deadline %lld)\n",
              static_cast<long long>(stats.completed),
              static_cast<long long>(stats.failed),
              static_cast<long long>(stats.deadline_exceeded));
  std::printf("  plans built      : %lld\n",
              static_cast<long long>(stats.plans_built));
  std::printf("  plans shared     : %lld (hit rate %.0f%%)\n",
              static_cast<long long>(stats.plans_shared),
              100.0 * stats.cache_hit_rate);
  std::printf("  queue wait       : avg %.2f ms, max %.2f ms\n",
              stats.avg_queue_wait_ms, stats.max_queue_wait_ms);
  std::printf("  simulated rounds : %lld across all jobs\n",
              static_cast<long long>(total_rounds));
  std::printf("  colorings proper : %d / %d\n", proper, colorings);

  if (stats.failed != 0 || job_errors != 0 || proper != colorings) return 1;
  if (stats.deadline_exceeded != 1) {
    std::printf("unexpected: budgeted job did not report its deadline\n");
    return 1;
  }
  if (stats.plans_shared == 0) {
    std::printf("unexpected: no plan sharing across tenants\n");
    return 1;
  }
  return 0;
}
