// Service-layer contract: a job executed through the SolverService — queued,
// picked up by a worker thread, run against the shared multi-tenant arena —
// is bit-identical (outputs, audited rounds, per-component ledger
// breakdowns) to the same solver called directly with a fresh pool. The
// stress test submits a mixed batch (all five solvers, random/grid/star
// inputs, duplicate shapes across tenants) against direct-call references
// and asserts the shared topology cache actually shared (> 0 hits). The
// SharedNetworkPool section pins the concurrent cache contract: one plan
// per shape no matter how many tenants race for it. CI runs this file under
// TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "core/solver_registry.hpp"
#include "graph/generators.hpp"
#include "service/solver_service.hpp"
#include "sim/pool.hpp"
#include "sim/shared_pool.hpp"
#include "util/rng.hpp"

namespace dec {
namespace {

// ------------------------------------------------------------ result keys

auto congest_key(const CongestColoringResult& r) {
  return std::tuple(r.colors, r.palette, r.rounds, r.levels, r.tail_degree);
}

auto bipartite_key(const BipartiteColoringResult& r) {
  return std::tuple(r.colors, r.palette, r.rounds, r.levels,
                    r.leaf_degree_bound, r.chi);
}

std::vector<NodeId> heads_of(const Orientation& o) {
  std::vector<NodeId> heads(static_cast<std::size_t>(o.graph().num_edges()));
  for (EdgeId e = 0; e < o.graph().num_edges(); ++e) {
    heads[static_cast<std::size_t>(e)] = o.head(e);
  }
  return heads;
}

auto orientation_key(const BalancedOrientationResult& r) {
  return std::tuple(heads_of(r.orientation), r.phases, r.rounds, r.flips,
                    r.leftover_edges, r.leftover_edge, r.max_excess,
                    r.max_message_bits);
}

auto d2ec_key(const Defective2ECResult& r) {
  return std::tuple(r.is_red, r.phases, r.rounds, r.beta_used, r.beta_emp,
                    r.max_message_bits);
}

auto token_key(const TokenDroppingResult& r) {
  return std::tuple(r.tokens, r.edge_passive, r.phases, r.rounds,
                    r.tokens_moved, r.max_message_bits);
}

void expect_same_result(const SolverResult& ref, const SolverResult& got,
                        int job_index) {
  ASSERT_EQ(ref.solver, got.solver) << "job " << job_index;
  ASSERT_EQ(ref.output.index(), got.output.index()) << "job " << job_index;
  if (const auto* r = std::get_if<CongestColoringResult>(&ref.output)) {
    EXPECT_EQ(congest_key(*r),
              congest_key(std::get<CongestColoringResult>(got.output)))
        << "job " << job_index;
  } else if (const auto* r =
                 std::get_if<BipartiteColoringResult>(&ref.output)) {
    EXPECT_EQ(bipartite_key(*r),
              bipartite_key(std::get<BipartiteColoringResult>(got.output)))
        << "job " << job_index;
  } else if (const auto* r =
                 std::get_if<BalancedOrientationResult>(&ref.output)) {
    EXPECT_EQ(orientation_key(*r),
              orientation_key(std::get<BalancedOrientationResult>(got.output)))
        << "job " << job_index;
  } else if (const auto* r = std::get_if<Defective2ECResult>(&ref.output)) {
    EXPECT_EQ(d2ec_key(*r),
              d2ec_key(std::get<Defective2ECResult>(got.output)))
        << "job " << job_index;
  } else if (const auto* r = std::get_if<TokenDroppingResult>(&ref.output)) {
    EXPECT_EQ(token_key(*r),
              token_key(std::get<TokenDroppingResult>(got.output)))
        << "job " << job_index;
  } else {
    FAIL() << "unhandled output variant, job " << job_index;
  }
  EXPECT_EQ(ref.ledger.breakdown(), got.ledger.breakdown())
      << "job " << job_index;
}

// ------------------------------------------------------------ job builders

std::shared_ptr<const BipartiteGraph> family_bipartite(int family, int seed) {
  Rng rng(4000 + 100 * family + static_cast<std::uint64_t>(seed));
  switch (family) {
    case 0:
      return std::make_shared<const BipartiteGraph>(
          gen::random_bipartite(16 + seed, 14 + (seed * 3) % 7, 0.18, rng));
    case 1: {
      Graph g = gen::grid(3 + seed % 3, 4 + seed % 4);
      auto parts = try_bipartition(g);
      EXPECT_TRUE(parts.has_value());
      return std::make_shared<const BipartiteGraph>(
          BipartiteGraph{std::move(g), *parts});
    }
    default: {
      Graph g = gen::star(14 + 2 * seed);
      auto parts = try_bipartition(g);
      EXPECT_TRUE(parts.has_value());
      return std::make_shared<const BipartiteGraph>(
          BipartiteGraph{std::move(g), *parts});
    }
  }
}

/// The mixed multi-tenant batch: every solver, every family, duplicate
/// shapes across "tenants" (distinct Graph objects with identical edge
/// lists, so sharing must come from the shape cache, not pointer equality).
std::vector<SolverRequest> build_job_mix() {
  std::vector<SolverRequest> reqs;
  // Keep the bipartite inputs alive through shared_ptr aliasing: the
  // requests own the BipartiteGraph via the graph aliasing constructor.
  for (int family = 0; family < 3; ++family) {
    for (int seed = 0; seed < 2; ++seed) {
      // Two tenants with identical shapes: build the instance twice.
      for (int tenant = 0; tenant < 2; ++tenant) {
        auto bg = family_bipartite(family, seed);
        std::shared_ptr<const Graph> g(bg, &bg->graph);
        Rng wrng(5000 + 10 * family + static_cast<std::uint64_t>(seed));
        std::vector<double> eta(static_cast<std::size_t>(g->num_edges()));
        for (auto& v : eta) v = 3.0 * (2.0 * wrng.next_double() - 1.0);
        std::vector<double> lambda(static_cast<std::size_t>(g->num_edges()));
        for (auto& v : lambda) v = wrng.next_double();

        BalancedOrientationJob oj;
        oj.parts = bg->parts;
        oj.eta = std::move(eta);
        oj.params.nu = seed % 2 == 0 ? 0.125 : 0.0625;
        reqs.push_back(make_orientation_request(g, std::move(oj)));

        Defective2ECJob dj;
        dj.parts = bg->parts;
        dj.lambda = std::move(lambda);
        dj.eps = 1.0;
        reqs.push_back(make_defective2ec_request(g, std::move(dj)));

        BipartiteColoringJob bj;
        bj.parts = bg->parts;
        bj.eps = 1.0;
        reqs.push_back(make_bipartite_request(g, std::move(bj)));
      }
    }
  }
  // Congest jobs on general graphs, again with a duplicate-shape tenant.
  for (int seed = 0; seed < 2; ++seed) {
    for (int tenant = 0; tenant < 2; ++tenant) {
      Rng rng(6000 + static_cast<std::uint64_t>(seed));
      auto g = std::make_shared<const Graph>(gen::gnp(36 + seed, 0.15, rng));
      reqs.push_back(make_congest_request(std::move(g), {1.0}));
    }
  }
  // Token dropping games (directed inputs).
  for (int seed = 0; seed < 4; ++seed) {
    Rng rng(7000 + static_cast<std::uint64_t>(seed));
    auto game = std::make_shared<const Digraph>(
        seed % 2 == 0 ? random_game(24 + seed, 0.15, rng)
                      : layered_game(3 + seed % 2, 8, 3, rng));
    TokenDroppingJob tj;
    tj.params.k = 12 + 2 * seed;
    tj.params.delta = 1 + seed % 2;
    tj.params.alpha.assign(static_cast<std::size_t>(game->num_nodes()),
                           tj.params.delta + 1);
    tj.initial_tokens.resize(static_cast<std::size_t>(game->num_nodes()));
    for (auto& t : tj.initial_tokens) {
      t = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(tj.params.k) + 1));
    }
    reqs.push_back(make_token_dropping_request(std::move(game),
                                               std::move(tj)));
  }
  return reqs;
}

// --------------------------------------------------------------- registry

TEST(SolverRegistry, RegistersAllFiveSolvers) {
  EXPECT_EQ(solver_registry().size(), 5u);
  for (const char* id :
       {"congest_edge_coloring", "bipartite_edge_coloring",
        "balanced_orientation", "defective_2_edge_coloring",
        "token_dropping"}) {
    EXPECT_TRUE(solver_registered(id)) << id;
  }
  EXPECT_FALSE(solver_registered("nonexistent_solver"));
}

TEST(SolverRegistry, ExecuteMatchesDirectCall) {
  // The registry is a pure forwarding layer: spot-check it against literal
  // direct calls for a graph solver and the digraph solver.
  Rng rng(42);
  auto bg = family_bipartite(0, 1);
  std::shared_ptr<const Graph> g(bg, &bg->graph);
  BipartiteColoringJob bj;
  bj.parts = bg->parts;
  bj.eps = 1.0;
  RoundLedger direct_ledger;
  const BipartiteColoringResult direct = bipartite_edge_coloring(
      *g, bg->parts, 1.0, ParamMode::kPractical, &direct_ledger, 1);
  const SolverResult via_registry =
      execute_request(make_bipartite_request(g, bj));
  EXPECT_EQ(bipartite_key(direct),
            bipartite_key(std::get<BipartiteColoringResult>(
                via_registry.output)));
  EXPECT_EQ(direct_ledger.breakdown(), via_registry.ledger.breakdown());

  auto game = std::make_shared<const Digraph>(layered_game(3, 6, 2, rng));
  TokenDroppingJob tj;
  tj.params.k = 8;
  tj.params.delta = 1;
  tj.params.alpha.assign(static_cast<std::size_t>(game->num_nodes()), 2);
  tj.initial_tokens.assign(static_cast<std::size_t>(game->num_nodes()), 4);
  RoundLedger td_ledger;
  const TokenDroppingResult td_direct = run_token_dropping(
      *game, tj.initial_tokens, tj.params, &td_ledger, 1);
  const SolverResult td_via =
      execute_request(make_token_dropping_request(game, tj));
  EXPECT_EQ(token_key(td_direct),
            token_key(std::get<TokenDroppingResult>(td_via.output)));
  EXPECT_EQ(td_ledger.breakdown(), td_via.ledger.breakdown());
}

TEST(SolverRegistry, RejectsMismatchedRequests) {
  Rng rng(43);
  auto g = std::make_shared<const Graph>(gen::gnp(20, 0.2, rng));
  SolverRequest req;
  req.solver = "token_dropping";  // digraph solver, graph input
  req.graph = g;
  req.params = CongestColoringJob{};  // wrong variant too
  EXPECT_THROW(execute_request(req), CheckError);

  req.solver = "no_such_solver";
  EXPECT_THROW(execute_request(req), CheckError);

  // Right id, wrong variant.
  SolverRequest mixed = make_congest_request(g, {1.0});
  mixed.params = TokenDroppingJob{};
  EXPECT_THROW(execute_request(mixed), CheckError);
}

// ---------------------------------------------------------------- service

TEST(SolverService, StressMixedJobsBitIdenticalToDirectCalls) {
  const std::vector<SolverRequest> reqs = build_job_mix();
  ASSERT_GE(reqs.size(), 32u);

  // Direct-call references: fresh pools, serial, on this thread.
  std::vector<SolverResult> refs;
  refs.reserve(reqs.size());
  for (const SolverRequest& req : reqs) {
    refs.push_back(execute_request(req, 1, nullptr));
  }

  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 8;  // smaller than the batch: exercises backpressure
  SolverService service(cfg);
  // Poll stats() concurrently with the churn: the cache counters are one
  // coherent snapshot, so the reported rate must agree *exactly* with the
  // hit/miss pair it came with (the old two-atomic read could disagree).
  std::atomic<bool> stop_poller{false};
  std::thread poller([&] {
    while (!stop_poller.load(std::memory_order_relaxed)) {
      const ServiceStats s = service.stats();
      const std::int64_t lookups = s.plans_built + s.plans_shared;
      const double expect =
          lookups > 0 ? static_cast<double>(s.plans_shared) /
                            static_cast<double>(lookups)
                      : 0.0;
      ASSERT_EQ(s.cache_hit_rate, expect);
    }
  });
  std::vector<JobTicket> tickets;
  tickets.reserve(reqs.size());
  for (const SolverRequest& req : reqs) {
    tickets.push_back(service.submit(req));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i].accepted) << "job " << i;
    const SolverResult got = tickets[i].result.get();
    ASSERT_EQ(got.status, SolverStatus::kOk) << "job " << i;
    EXPECT_EQ(got.attempts, 1) << "job " << i;
    expect_same_result(refs[i], got, static_cast<int>(i));
  }
  stop_poller.store(true, std::memory_order_relaxed);
  poller.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::int64_t>(reqs.size()));
  EXPECT_EQ(stats.completed, static_cast<std::int64_t>(reqs.size()));
  EXPECT_EQ(stats.failed, 0);
  // Duplicate shapes across tenants (and across a tenant's own stages) must
  // actually share plans through the concurrent topology cache.
  EXPECT_GT(stats.plans_shared, 0);
  EXPECT_GT(stats.plans_built, 0);
  EXPECT_GT(stats.cache_hit_rate, 0.0);
  EXPECT_GE(stats.avg_queue_wait_ms, 0.0);
  EXPECT_GE(stats.max_queue_wait_ms, stats.avg_queue_wait_ms);
}

TEST(SolverService, FailedJobsCarryStatusAndErrorNotExceptions) {
  SolverService service({.workers = 1, .queue_capacity = 4});
  Rng rng(44);
  auto g = std::make_shared<const Graph>(gen::gnp(16, 0.2, rng));
  // eps = 0 violates congest_edge_coloring's precondition. The future is
  // satisfied with a value — the failure is data, not an exception.
  JobTicket bad = service.submit(make_congest_request(g, {0.0}));
  ASSERT_TRUE(bad.accepted);
  const SolverResult bad_result = bad.result.get();
  EXPECT_EQ(bad_result.status, SolverStatus::kFailed);
  EXPECT_FALSE(bad_result.error.empty());
  EXPECT_EQ(bad_result.attempts, 1);  // CheckError is permanent, no retries
  JobTicket good = service.submit(make_congest_request(g, {1.0}));
  EXPECT_EQ(good.result.get().status, SolverStatus::kOk);
  service.drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.retried, 0);
}

TEST(SolverService, ShutdownDrainsAndRejectsLateSubmits) {
  Rng rng(45);
  auto g = std::make_shared<const Graph>(gen::gnp(20, 0.2, rng));
  SolverService service({.workers = 2, .queue_capacity = 16});
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 6; ++i) {
    tickets.push_back(service.submit(make_congest_request(g, {1.0})));
  }
  service.shutdown();  // must satisfy every already-queued future
  for (JobTicket& t : tickets) {
    EXPECT_EQ(t.result.get().status, SolverStatus::kOk);
  }
  // Late submissions come back as structured rejections, not exceptions.
  JobTicket late = service.submit(make_congest_request(g, {1.0}));
  EXPECT_FALSE(late.accepted);
  EXPECT_EQ(late.reject, RejectReason::kShuttingDown);
  const SolverResult late_result = late.result.get();
  EXPECT_EQ(late_result.status, SolverStatus::kRejected);
  EXPECT_EQ(late_result.reject, RejectReason::kShuttingDown);
  JobTicket late_try = service.try_submit(make_congest_request(g, {1.0}));
  EXPECT_FALSE(late_try.accepted);
  EXPECT_EQ(late_try.reject, RejectReason::kShuttingDown);
  EXPECT_EQ(late_try.result.get().status, SolverStatus::kRejected);
}

TEST(SolverService, DrainWaitsForInFlightJobs) {
  Rng rng(46);
  auto g = std::make_shared<const Graph>(gen::gnp(30, 0.2, rng));
  SolverService service({.workers = 2, .queue_capacity = 32});
  std::vector<JobTicket> tickets;
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(service.submit(make_congest_request(g, {1.0})));
  }
  service.drain();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed + stats.failed, 8);
  for (JobTicket& t : tickets) {
    EXPECT_EQ(t.result.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
}

// ------------------------------------------------------------ failure model

TEST(SolverService, TrySubmitRejectsWhenQueueFull) {
  // Zero workers: admitted jobs sit in the queue forever, so the queue
  // fills deterministically.
  Rng rng(50);
  auto g = std::make_shared<const Graph>(gen::gnp(12, 0.2, rng));
  SolverService service({.workers = 0, .queue_capacity = 2});
  JobTicket a = service.try_submit(make_congest_request(g, {1.0}));
  JobTicket b = service.try_submit(make_congest_request(g, {1.0}));
  EXPECT_TRUE(a.accepted);
  EXPECT_TRUE(b.accepted);
  EXPECT_NE(a.id, b.id);
  JobTicket full = service.try_submit(make_congest_request(g, {1.0}));
  EXPECT_FALSE(full.accepted);
  EXPECT_EQ(full.reject, RejectReason::kQueueFull);
  const SolverResult full_result = full.result.get();
  EXPECT_EQ(full_result.status, SolverStatus::kRejected);
  EXPECT_EQ(full_result.reject, RejectReason::kQueueFull);
  EXPECT_EQ(service.stats().rejected, 1);
  service.shutdown();
  // The two queued jobs resolve as Rejected{kShuttingDown}: admitted but
  // never run.
  EXPECT_EQ(a.result.get().reject, RejectReason::kShuttingDown);
  EXPECT_EQ(b.result.get().reject, RejectReason::kShuttingDown);
}

TEST(SolverService, BlockedSubmitWakesRejectedOnShutdown) {
  // Satellite: a submit() blocked on a full queue must wake and return a
  // rejected ticket when shutdown() arrives — never deadlock, never enqueue
  // past shutdown. Zero workers keeps the queue deterministically full.
  Rng rng(51);
  auto g = std::make_shared<const Graph>(gen::gnp(12, 0.2, rng));
  SolverService service({.workers = 0, .queue_capacity = 1});
  JobTicket first = service.submit(make_congest_request(g, {1.0}));
  ASSERT_TRUE(first.accepted);

  std::promise<void> blocked_entered;
  JobTicket blocked;
  std::thread submitter([&] {
    blocked_entered.set_value();
    blocked = service.submit(make_congest_request(g, {1.0}));  // queue full
  });
  blocked_entered.get_future().wait();
  // Give the submitter time to actually block on the not-full cv.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.shutdown();
  submitter.join();

  EXPECT_FALSE(blocked.accepted);
  EXPECT_EQ(blocked.reject, RejectReason::kShuttingDown);
  EXPECT_EQ(blocked.result.get().status, SolverStatus::kRejected);
  EXPECT_EQ(first.result.get().reject, RejectReason::kShuttingDown);
  // Nothing was enqueued past shutdown.
  EXPECT_EQ(service.stats().queued, 0u);
  EXPECT_EQ(service.stats().submitted, 1);
}

TEST(SolverService, CancelQueuedJobResolvesCancelled) {
  Rng rng(52);
  auto g = std::make_shared<const Graph>(gen::gnp(12, 0.2, rng));
  SolverService service({.workers = 0, .queue_capacity = 4});
  JobTicket t = service.submit(make_congest_request(g, {1.0}));
  ASSERT_TRUE(t.accepted);
  EXPECT_TRUE(service.cancel(t.id));
  EXPECT_FALSE(service.cancel(t.id + 999));  // unknown id
  service.shutdown();
  // Cancelled-while-queued beats the shutdown sweep's kRejected.
  const SolverResult r = t.result.get();
  EXPECT_EQ(r.status, SolverStatus::kCancelled);
  EXPECT_EQ(r.attempts, 0);  // never ran
  EXPECT_EQ(service.stats().cancelled, 1);
}

TEST(SolverService, CancelRunningJobStopsAtRoundBarrier) {
  // A solver big enough to still be running when cancel() lands; if the
  // race is lost and it finished, kOk is also a legal outcome — assert on
  // whichever terminal state won, never a hang.
  Rng rng(53);
  auto g = std::make_shared<const Graph>(gen::gnp(220, 0.12, rng));
  SolverService service({.workers = 1, .queue_capacity = 4});
  JobTicket t = service.submit(make_congest_request(g, {0.25}));
  ASSERT_TRUE(t.accepted);
  service.cancel(t.id);
  const SolverResult r = t.result.get();
  EXPECT_TRUE(r.status == SolverStatus::kCancelled ||
              r.status == SolverStatus::kOk)
      << to_string(r.status);
  service.drain();
  EXPECT_EQ(service.stats().cancelled + service.stats().completed, 1);
}

TEST(SolverService, ExpiredDeadlineBeforePickupNeverRuns) {
  // Deadline already expired when the worker picks the job up: the
  // pre-flight check resolves it without running a solver. A queued job
  // behind a long-running one guarantees the wait.
  Rng rng(54);
  auto big = std::make_shared<const Graph>(gen::gnp(200, 0.12, rng));
  auto small = std::make_shared<const Graph>(gen::gnp(16, 0.2, rng));
  SolverService service({.workers = 1, .queue_capacity = 8});
  JobTicket head = service.submit(make_congest_request(big, {1.0}));
  SubmitOptions opts;
  opts.deadline = std::chrono::microseconds(1);  // expires immediately
  JobTicket doomed = service.submit(make_congest_request(small, {1.0}), opts);
  const SolverResult r = doomed.result.get();
  EXPECT_EQ(r.status, SolverStatus::kDeadlineExceeded);
  EXPECT_EQ(r.attempts, 0);  // resolved before any attempt
  EXPECT_EQ(head.result.get().status, SolverStatus::kOk);
  service.drain();
  EXPECT_EQ(service.stats().deadline_exceeded, 1);
}

TEST(SolverService, RoundBudgetIsADeterministicDeadline) {
  Rng rng(55);
  auto g = std::make_shared<const Graph>(gen::gnp(60, 0.15, rng));
  // Reference: how many rounds does this job take un-budgeted?
  const SolverResult free_run =
      execute_request(make_congest_request(g, {1.0}));
  ASSERT_EQ(free_run.status, SolverStatus::kOk);

  SolverService service({.workers = 1, .queue_capacity = 4});
  SubmitOptions opts;
  opts.round_budget = 3;  // far fewer barriers than the solver needs
  JobTicket t = service.submit(make_congest_request(g, {1.0}), opts);
  const SolverResult r = t.result.get();
  EXPECT_EQ(r.status, SolverStatus::kDeadlineExceeded);
  EXPECT_EQ(r.attempts, 1);
  // A budget generous beyond the job's needs changes nothing.
  SubmitOptions ample;
  ample.round_budget = 1 << 20;
  JobTicket ok = service.submit(make_congest_request(g, {1.0}), ample);
  const SolverResult ok_result = ok.result.get();
  ASSERT_EQ(ok_result.status, SolverStatus::kOk);
  expect_same_result(free_run, ok_result, 0);
  service.drain();
  EXPECT_EQ(service.stats().deadline_exceeded, 1);
  EXPECT_EQ(service.stats().completed, 1);
}

TEST(SolverService, AbortedJobsLeaveTheArenaCleanForLaterTenants) {
  // Jobs aborted mid-run return their leases to the worker's view; the next
  // job reusing those run states must produce bit-identical results to a
  // fresh-pool direct call.
  Rng rng(56);
  auto g = std::make_shared<const Graph>(gen::gnp(60, 0.15, rng));
  const SolverResult ref = execute_request(make_congest_request(g, {1.0}));

  SolverService service({.workers = 1, .queue_capacity = 8});
  SubmitOptions tiny;
  tiny.round_budget = 2;
  for (int i = 0; i < 3; ++i) {
    JobTicket t = service.submit(make_congest_request(g, {1.0}), tiny);
    EXPECT_EQ(t.result.get().status, SolverStatus::kDeadlineExceeded);
  }
  JobTicket clean = service.submit(make_congest_request(g, {1.0}));
  const SolverResult got = clean.result.get();
  ASSERT_EQ(got.status, SolverStatus::kOk);
  expect_same_result(ref, got, 0);
}

// ------------------------------------------------------- shared pool (raw)

TEST(SharedNetworkPool, ConcurrentTenantsPlanEachShapeOnce) {
  Rng rng(47);
  const Graph g = gen::gnp(60, 0.1, rng);
  SharedNetworkPool pool(1);
  constexpr int kTenants = 8;
  std::vector<std::shared_ptr<const NetworkTopology>> got(kTenants);
  {
    std::vector<std::thread> tenants;
    tenants.reserve(kTenants);
    for (int t = 0; t < kTenants; ++t) {
      tenants.emplace_back([&, t] { got[static_cast<std::size_t>(t)] =
                                        pool.topology(g); });
    }
    for (auto& th : tenants) th.join();
  }
  for (int t = 1; t < kTenants; ++t) {
    EXPECT_EQ(got[0].get(), got[static_cast<std::size_t>(t)].get());
  }
  EXPECT_EQ(pool.topology_misses(), 1);
  EXPECT_EQ(pool.topology_hits(), kTenants - 1);
  EXPECT_EQ(pool.cached_topologies(), 1u);
}

TEST(SharedNetworkPool, ConcurrentLookupsCountEveryHitAndMiss) {
  // Threads look up a rotating set of shapes, so first lookups race with
  // repeat ones. Every lookup is counted exactly once: as a miss for each
  // shape's one plan, as a hit otherwise.
  constexpr int kThreads = 4;
  constexpr int kLookups = 2000;
  constexpr int kShapes = 6;
  std::vector<Graph> shapes;
  for (int s = 0; s < kShapes; ++s) shapes.push_back(gen::cycle(8 + s));
  SharedNetworkPool pool(1);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kLookups; ++i) {
          pool.topology(shapes[static_cast<std::size_t>((i + t) % kShapes)]);
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  const SharedNetworkPool::TopologyCounters c = pool.topology_counters();
  EXPECT_EQ(c.hits + c.misses, std::int64_t{kThreads} * kLookups);
  EXPECT_EQ(c.misses, kShapes);
  EXPECT_EQ(pool.cached_topologies(), static_cast<std::size_t>(kShapes));
}

TEST(SharedNetworkPool, TenantsOnDistinctThreadsSharePlans) {
  // Serial tenants on different threads: the second tenant's view reuses
  // the plan the first tenant's view built, but not its run state — each
  // view builds its own and frees it on destruction.
  const Graph g = gen::grid(5, 6);
  SharedNetworkPool shared(1);
  auto run_tenant = [&] {
    NetworkPool view(shared);
    {
      auto lease = view.network(g);
      EXPECT_EQ(lease->rounds_executed(), 0);
      lease->round_fast([](NodeId v, const Inbox&, Outbox& out) {
        for (auto&& m : out) m.assign({v});
      });
    }
    EXPECT_EQ(view.run_states(), 1u);
  };
  std::thread(run_tenant).join();
  std::thread(run_tenant).join();
  EXPECT_EQ(shared.topology_misses(), 1);
  EXPECT_EQ(shared.topology_hits(), 1);
}

}  // namespace
}  // namespace dec
