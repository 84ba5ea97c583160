// Chaos suite: the solver service under deterministic fault injection.
// Compiled only when -DDEC_FAULT_INJECTION=ON (CMake skips this file
// otherwise), because the fault points themselves compile to nothing in
// normal builds.
//
// Scenarios: transient throws at a chosen round barrier (retried to
// bit-identical success), slab allocation failure mid-round (abort +
// retry on a recycled lease), injected cancellation mid-phase, injected
// worker latency against a wall-clock deadline, and randomized fault
// schedules over a mixed 40-job batch where the only acceptable outcomes
// are clean statuses — every future satisfied, every kOk bit-identical to a
// fault-free direct call, the arena clean afterwards. DEC_CHAOS_ITERS
// (env) raises the randomized iterations for soak runs.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "core/solver_registry.hpp"
#include "graph/generators.hpp"
#include "service/solver_service.hpp"
#include "sim/network.hpp"
#include "testing/fault_injection.hpp"
#include "util/rng.hpp"

namespace dec {
namespace {

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

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

/// Compare two kOk results for bit-identity (outputs + ledger breakdown).
void expect_identical(const SolverResult& ref, const SolverResult& got,
                      int job_index) {
  ASSERT_EQ(got.status, SolverStatus::kOk) << "job " << job_index;
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
  } else if (const auto* r = std::get_if<TokenDroppingResult>(&ref.output)) {
    EXPECT_EQ(token_key(*r),
              token_key(std::get<TokenDroppingResult>(got.output)))
        << "job " << job_index;
  }
  EXPECT_EQ(ref.ledger.breakdown(), got.ledger.breakdown())
      << "job " << job_index;
}

SolverRequest small_congest(std::uint64_t seed) {
  Rng rng(seed);
  auto g = std::make_shared<const Graph>(gen::gnp(40, 0.15, rng));
  return make_congest_request(std::move(g), {1.0});
}

TEST_F(ChaosTest, UnarmedPointsCostNothingAndCountNothing) {
  EXPECT_FALSE(fault::enabled());
  const SolverResult r = execute_request(small_congest(9100));
  EXPECT_EQ(r.status, SolverStatus::kOk);
  EXPECT_EQ(fault::hits("network.round"), 0);
  EXPECT_EQ(fault::fired("network.round"), 0);
}

TEST_F(ChaosTest, TransientRoundFaultRetriesToBitIdenticalSuccess) {
  const SolverRequest req = small_congest(9100);
  const SolverResult ref = execute_request(req);  // faults disarmed

  // Single-shot transient throw at the 6th round barrier: attempt one dies
  // mid-solve, attempt two runs fault-free on a recycled lease.
  fault::FaultPlan plan;
  plan.action = fault::Action::kThrowTransient;
  plan.fire_at = 5;
  fault::arm("network.round", plan);

  SolverService service({.workers = 1, .queue_capacity = 4});
  SubmitOptions opts;
  opts.max_retries = 2;
  opts.retry_backoff = std::chrono::microseconds(100);
  JobTicket t = service.submit(req, opts);
  const SolverResult got = t.result.get();
  EXPECT_EQ(fault::fired("network.round"), 1);
  EXPECT_EQ(got.attempts, 2);
  expect_identical(ref, got, 0);
  EXPECT_EQ(service.stats().retried, 1);
  EXPECT_EQ(service.stats().completed, 1);
}

TEST_F(ChaosTest, ExhaustedRetriesSurfaceTheTransientAsFailed) {
  const SolverRequest req = small_congest(9103);
  fault::FaultPlan plan;
  plan.action = fault::Action::kThrowTransient;
  plan.fire_at = 2;
  plan.period = 1;  // every barrier from the 3rd on: no attempt survives
  fault::arm("network.round", plan);

  SolverService service({.workers = 1, .queue_capacity = 4});
  SubmitOptions opts;
  opts.max_retries = 2;
  opts.retry_backoff = std::chrono::microseconds(100);
  JobTicket t = service.submit(req, opts);
  const SolverResult got = t.result.get();
  EXPECT_EQ(got.status, SolverStatus::kFailed);
  EXPECT_EQ(got.attempts, 3);  // initial + 2 retries
  EXPECT_NE(got.error.find("injected transient fault"), std::string::npos)
      << got.error;
  EXPECT_EQ(service.stats().failed, 1);
  EXPECT_EQ(service.stats().retried, 2);
}

TEST_F(ChaosTest, SlabAllocFailureAbortsMidRoundAndResetsClean) {
  // The orchestrated solvers send one or two fields per message, so
  // "slab.alloc" is exercised at the substrate level: a spill-heavy
  // protocol whose 3rd slab allocation throws std::bad_alloc from inside a
  // running round. reset() must then hand back a state bit-identical to
  // fresh.
  Rng rng(21);
  const Graph g = gen::gnp(40, 0.2, rng);
  auto spam = [&](SyncNetwork& net, int rounds) {
    for (int r = 0; r < rounds; ++r) {
      net.round_fast([&](NodeId v, const Inbox& in, Outbox& out) {
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < in.size(); ++i) {
          for (const std::int64_t f : in[i].fields()) {
            acc = acc * 1315423911u + static_cast<std::uint64_t>(f);
          }
        }
        for (std::size_t i = 0; i < out.size(); ++i) {
          auto m = out[i];
          m.assign({static_cast<std::int64_t>(v)});
          for (int k = 0; k < 8; ++k) {
            m.push(k + static_cast<std::int64_t>(acc % 7));
          }
        }
      });
    }
    std::uint64_t fold = 0;
    net.drain_fast([&](NodeId v, const Inbox& in) {
      for (std::size_t i = 0; i < in.size(); ++i) {
        for (const std::int64_t f : in[i].fields()) {
          fold = fold * 31 + static_cast<std::uint64_t>(f) +
                 static_cast<std::uint64_t>(v);
        }
      }
    });
    return std::tuple(fold, net.rounds_executed(),
                      net.audit().messages_sent());
  };

  const SlotPlan width{.max_fields = 9};
  SyncNetwork ref_net(g, nullptr, "net", 1, width);
  const auto ref = spam(ref_net, 4);

  fault::FaultPlan plan;
  plan.action = fault::Action::kAllocFail;
  plan.fire_at = 2;
  fault::arm("slab.alloc", plan);
  SyncNetwork net(g, nullptr, "net", 1, width);
  EXPECT_THROW(spam(net, 4), std::bad_alloc);
  EXPECT_GE(fault::hits("slab.alloc"), 3);
  EXPECT_EQ(fault::fired("slab.alloc"), 1);

  net.reset();  // post-abort reset must leak nothing
  EXPECT_EQ(spam(net, 4), ref);
}

TEST_F(ChaosTest, WorkerAllocFailureIsTransientAndRetries) {
  // std::bad_alloc out of the worker path (here: the pre-execution fault
  // point) classifies as transient, exactly like TransientError.
  const SolverRequest req = small_congest(9106);
  const SolverResult ref = execute_request(req);

  fault::FaultPlan plan;
  plan.action = fault::Action::kAllocFail;
  plan.fire_at = 0;  // first pickup dies before the solver starts
  fault::arm("service.worker", plan);

  SolverService service({.workers = 1, .queue_capacity = 4});
  SubmitOptions opts;
  opts.max_retries = 1;
  opts.retry_backoff = std::chrono::microseconds(100);
  JobTicket t = service.submit(req, opts);
  const SolverResult got = t.result.get();
  EXPECT_EQ(fault::fired("service.worker"), 1);
  EXPECT_EQ(got.attempts, 2);
  expect_identical(ref, got, 0);
  EXPECT_EQ(service.stats().retried, 1);
}

TEST_F(ChaosTest, InjectedCancelMidPhaseResolvesCancelled) {
  fault::FaultPlan plan;
  plan.action = fault::Action::kCancel;
  plan.fire_at = 4;  // trip the job's own token at the 5th barrier
  fault::arm("network.round", plan);

  SolverService service({.workers = 1, .queue_capacity = 4});
  JobTicket t = service.submit(small_congest(9106));
  const SolverResult got = t.result.get();
  EXPECT_EQ(got.status, SolverStatus::kCancelled);
  EXPECT_EQ(fault::fired("network.round"), 1);
  EXPECT_EQ(service.stats().cancelled, 1);

  // The abandoned lease parks clean: a fault-free job right after matches a
  // disarmed direct call.
  fault::disarm_all();
  const SolverResult ref = execute_request(small_congest(9106));
  JobTicket clean = service.submit(small_congest(9106));
  expect_identical(ref, clean.result.get(), 1);
}

TEST_F(ChaosTest, InjectedLatencyLosesToTheDeadline) {
  // 50 ms of injected worker latency against a 5 ms deadline: whether the
  // watchdog or the first round barrier notices, the job must resolve as
  // kDeadlineExceeded — and promptly, not after the full solve.
  fault::FaultPlan plan;
  plan.action = fault::Action::kDelay;
  plan.delay = std::chrono::milliseconds(50);
  fault::arm("service.worker", plan);

  SolverService service({.workers = 1, .queue_capacity = 4});
  SubmitOptions opts;
  opts.deadline = std::chrono::milliseconds(5);
  JobTicket t = service.submit(small_congest(9109), opts);
  const SolverResult got = t.result.get();
  EXPECT_EQ(got.status, SolverStatus::kDeadlineExceeded);
  EXPECT_EQ(service.stats().deadline_exceeded, 1);
}

// ------------------------------------------------------- randomized batches

int chaos_iters() {
  if (const char* env = std::getenv("DEC_CHAOS_ITERS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 2;
}

std::vector<SolverRequest> mixed_batch() {
  std::vector<SolverRequest> reqs;
  for (int i = 0; i < 40; ++i) {
    Rng rng(9000 + static_cast<std::uint64_t>(i));
    switch (i % 3) {
      case 0:
        reqs.push_back(small_congest(9100 + static_cast<std::uint64_t>(i)));
        break;
      case 1: {
        auto bg = std::make_shared<const BipartiteGraph>(
            gen::random_bipartite(16 + i % 5, 14, 0.18, rng));
        std::shared_ptr<const Graph> g(bg, &bg->graph);
        BipartiteColoringJob job;
        job.parts = bg->parts;
        reqs.push_back(make_bipartite_request(g, std::move(job)));
        break;
      }
      default: {
        auto game = std::make_shared<const Digraph>(
            layered_game(3 + i % 2, 8, 3, rng));
        TokenDroppingJob job;
        job.params.k = 10 + i % 4;
        job.params.delta = 1;
        job.params.alpha.assign(
            static_cast<std::size_t>(game->num_nodes()), 2);
        job.initial_tokens.assign(
            static_cast<std::size_t>(game->num_nodes()), 5);
        reqs.push_back(
            make_token_dropping_request(std::move(game), std::move(job)));
        break;
      }
    }
  }
  return reqs;
}

TEST_F(ChaosTest, RandomizedFaultScheduleOverMixedBatch) {
  const std::vector<SolverRequest> reqs = mixed_batch();
  // Fault-free references, computed while disarmed.
  std::vector<SolverResult> refs;
  refs.reserve(reqs.size());
  for (const SolverRequest& req : reqs) refs.push_back(execute_request(req));

  const int iters = chaos_iters();
  for (int iter = 0; iter < iters; ++iter) {
    Rng rng(31337 + static_cast<std::uint64_t>(iter));
    // A periodic transient at the shared round barrier plus a sparse cancel
    // wave: the schedule is random per iteration but exact per run.
    fault::FaultPlan round_plan;
    round_plan.action = fault::Action::kThrowTransient;
    round_plan.fire_at = static_cast<std::int64_t>(rng.next_below(200));
    round_plan.period =
        800 + static_cast<std::int64_t>(rng.next_below(800));
    fault::arm("network.round", round_plan);
    // Sprinkle worker latency on every few pickups (no failure, just jitter
    // in scheduling relative to the fault stream).
    fault::FaultPlan delay_plan;
    delay_plan.action = fault::Action::kDelay;
    delay_plan.fire_at = 1 + static_cast<std::int64_t>(rng.next_below(3));
    delay_plan.period = 3;
    delay_plan.delay = std::chrono::microseconds(500);
    fault::arm("service.worker", delay_plan);

    SolverService service({.workers = 2, .queue_capacity = 8});
    std::vector<JobTicket> tickets;
    tickets.reserve(reqs.size());
    SubmitOptions opts;
    opts.max_retries = 4;
    opts.retry_backoff = std::chrono::microseconds(50);
    for (const SolverRequest& req : reqs) {
      tickets.push_back(service.submit(req, opts));
    }

    int ok = 0, failed = 0;
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      ASSERT_TRUE(tickets[i].accepted) << "iter " << iter << " job " << i;
      // Every future must be satisfied — with kOk bit-identical to the
      // fault-free reference, or a structured transient failure.
      const SolverResult got = tickets[i].result.get();
      if (got.status == SolverStatus::kOk) {
        ++ok;
        expect_identical(refs[i], got, static_cast<int>(i));
      } else {
        ASSERT_EQ(got.status, SolverStatus::kFailed)
            << "iter " << iter << " job " << i << ": "
            << to_string(got.status);
        EXPECT_FALSE(got.error.empty());
        ++failed;
      }
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, static_cast<std::int64_t>(reqs.size()));
    EXPECT_EQ(stats.completed, ok);
    EXPECT_EQ(stats.failed, failed);
    EXPECT_EQ(ok + failed, static_cast<int>(reqs.size()));
    service.shutdown();
    fault::disarm_all();

    // The arena survived the chaos: a fault-free pass over the same batch
    // through a fresh service on the same process is bit-identical.
    if (iter == iters - 1) {
      SolverService clean({.workers = 2, .queue_capacity = 8});
      std::vector<JobTicket> clean_tickets;
      for (const SolverRequest& req : reqs) {
        clean_tickets.push_back(clean.submit(req));
      }
      for (std::size_t i = 0; i < clean_tickets.size(); ++i) {
        expect_identical(refs[i], clean_tickets[i].result.get(),
                         static_cast<int>(i));
      }
    }
  }
}

TEST_F(ChaosTest, CancelWaveOverRunningBatch) {
  // Inject periodic cancels into a batch and require only clean terminal
  // statuses; cancelled jobs must not poison later jobs' run states.
  const std::vector<SolverRequest> reqs = mixed_batch();
  std::vector<SolverResult> refs;
  refs.reserve(reqs.size());
  for (const SolverRequest& req : reqs) refs.push_back(execute_request(req));

  fault::FaultPlan plan;
  plan.action = fault::Action::kCancel;
  plan.fire_at = 10;
  plan.period = 25;
  fault::arm("network.round", plan);

  SolverService service({.workers = 2, .queue_capacity = 8});
  std::vector<JobTicket> tickets;
  for (const SolverRequest& req : reqs) tickets.push_back(service.submit(req));
  int ok = 0, cancelled = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const SolverResult got = tickets[i].result.get();
    if (got.status == SolverStatus::kOk) {
      ++ok;
      expect_identical(refs[i], got, static_cast<int>(i));
    } else {
      ASSERT_EQ(got.status, SolverStatus::kCancelled)
          << "job " << i << ": " << to_string(got.status);
      ++cancelled;
    }
  }
  EXPECT_GT(cancelled, 0);  // the wave actually hit something
  EXPECT_EQ(ok + cancelled, static_cast<int>(reqs.size()));
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cancelled, cancelled);
  EXPECT_EQ(stats.completed, ok);
}

TEST_F(ChaosTest, PriorityClassesSurviveFaultsWithoutStarvation) {
  // PR 8 scheduler under chaos: the mixed batch carries all three priority
  // classes (round-robin) while transient faults and worker latency churn
  // the pickup order. Strict priority must not become starvation — every
  // class finishes jobs (the queue drains, so kLow runs once its betters
  // are done), every future resolves with a clean status, and kOk results
  // stay bit-identical to fault-free direct calls.
  const std::vector<SolverRequest> reqs = mixed_batch();
  std::vector<SolverResult> refs;
  refs.reserve(reqs.size());
  for (const SolverRequest& req : reqs) refs.push_back(execute_request(req));

  fault::FaultPlan round_plan;
  round_plan.action = fault::Action::kThrowTransient;
  round_plan.fire_at = 100;
  round_plan.period = 900;
  fault::arm("network.round", round_plan);
  fault::FaultPlan delay_plan;
  delay_plan.action = fault::Action::kDelay;
  delay_plan.fire_at = 2;
  delay_plan.period = 4;
  delay_plan.delay = std::chrono::microseconds(500);
  fault::arm("service.worker", delay_plan);

  constexpr Priority kClasses[] = {Priority::kHigh, Priority::kNormal,
                                   Priority::kLow};
  SolverService service({.workers = 2, .queue_capacity = 8});
  std::vector<JobTicket> tickets;
  tickets.reserve(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    SubmitOptions opts;
    opts.priority = kClasses[i % 3];
    opts.max_retries = 4;
    opts.retry_backoff = std::chrono::microseconds(50);
    tickets.push_back(service.submit(reqs[i], opts));
  }

  int ok_per_class[3] = {0, 0, 0};
  int failed = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_TRUE(tickets[i].accepted) << "job " << i;
    const SolverResult got = tickets[i].result.get();
    if (got.status == SolverStatus::kOk) {
      ++ok_per_class[i % 3];
      expect_identical(refs[i], got, static_cast<int>(i));
    } else {
      ASSERT_EQ(got.status, SolverStatus::kFailed)
          << "job " << i << ": " << to_string(got.status);
      ++failed;
    }
  }
  for (int c = 0; c < 3; ++c) {
    EXPECT_GT(ok_per_class[c], 0)
        << "class " << to_string(kClasses[c]) << " starved";
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed + stats.failed,
            static_cast<std::int64_t>(reqs.size()));
  EXPECT_EQ(stats.failed, failed);
}

}  // namespace
}  // namespace dec
