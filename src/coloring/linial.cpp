#include "coloring/linial.hpp"

#include <algorithm>
#include <limits>

#include "coloring/digit_poly.hpp"
#include "graph/line_graph.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"
#include "util/prime.hpp"

namespace dec {

LinialStep linial_step_params(std::int64_t m, int max_degree) {
  DEC_REQUIRE(m >= 1, "palette must be positive");
  const std::int64_t delta = std::max(1, max_degree);
  for (int d = 1;; ++d) {
    const std::int64_t q = static_cast<std::int64_t>(
        next_prime(static_cast<std::uint64_t>(delta) * d + 1));
    // Coverage: q^(d+1) >= m so that distinct colors map to distinct
    // polynomials. Saturating product to avoid overflow.
    std::int64_t cover = 1;
    for (int i = 0; i <= d && cover < m; ++i) {
      if (cover > m / q) {
        cover = m;  // saturate: cover * q would already exceed m
      } else {
        cover *= q;
      }
    }
    if (cover >= m) return LinialStep{q, d};
    DEC_CHECK(d < 64, "Linial step parameter search diverged");
  }
}

namespace {

/// One reduction step at node v: the color (r, p_mine(r)) for the smallest
/// evaluation point r at which no neighbor's polynomial agrees with v's.
/// At r = 0 every polynomial evaluates to its constant digit (color mod q),
/// so the common case costs one remainder per neighbor; the full digits are
/// decoded only when r = 0 clashes. Per-worker scratch keeps the heap off
/// the round path.
template <class Inbox>
std::int64_t reduce_color(const DigitPoly& poly, std::int64_t mine,
                          const Inbox& inbox) {
  const std::uint32_t mine0 = poly.mod(static_cast<std::uint32_t>(mine));
  bool clash0 = false;
  for (const auto& msg : inbox) {
    DEC_CHECK(!msg.empty(), "Linial expects a color from every neighbor");
    if (poly.mod(static_cast<std::uint32_t>(msg.at(0))) == mine0) {
      clash0 = true;
      break;
    }
  }
  if (!clash0) return mine0;

  // Own digits first, then one block per neighbor.
  thread_local std::vector<std::uint32_t> digits;
  const std::size_t width = static_cast<std::size_t>(poly.degree()) + 1;
  const std::size_t need = width * (inbox.size() + 1);
  if (digits.size() < need) digits.resize(need);
  poly.decode(static_cast<std::uint32_t>(mine), digits.data());
  std::uint32_t* nbr = digits.data() + width;
  for (const auto& msg : inbox) {
    DEC_CHECK(!msg.empty(), "Linial expects a color from every neighbor");
    poly.decode(static_cast<std::uint32_t>(msg.at(0)), nbr);
    nbr += width;
  }
  for (std::uint32_t r = 1; r < poly.q(); ++r) {
    const std::uint32_t my_val = poly.eval(digits.data(), r);
    bool clash = false;
    for (std::size_t i = 1; i <= inbox.size() && !clash; ++i) {
      clash = poly.eval(digits.data() + i * width, r) == my_val;
    }
    if (!clash) return static_cast<std::int64_t>(r) * poly.q() + my_val;
  }
  DEC_CHECK(false,
            "Linial: no collision-free evaluation point (q > Δ·d violated?)");
  return -1;
}

}  // namespace

LinialResult linial_color(const Graph& g, RoundLedger* ledger,
                          std::vector<Color> initial, std::int64_t id_space,
                          int num_threads, NetworkPool* pool,
                          CancelToken* cancel) {
  const NodeId n = g.num_nodes();
  if (initial.empty()) {
    initial.resize(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) initial[static_cast<std::size_t>(v)] = v;
    if (id_space == 0) id_space = std::max<std::int64_t>(1, n);
  }
  DEC_REQUIRE(initial.size() == static_cast<std::size_t>(n),
              "initial coloring has wrong length");
  DEC_REQUIRE(id_space >= 1, "id space must be positive");
  // Colors and the palette are int32: a larger id space could only wrap.
  DEC_REQUIRE(id_space <= std::numeric_limits<Color>::max(),
              "id space exceeds the int32 Color range");
  for (const Color c : initial) {
    DEC_REQUIRE(c >= 0 && c < id_space, "initial color out of id space");
  }
  // Stages outside the rounds run their chunks on the pool's executor.
  ThreadPool* const executor = pool != nullptr ? &pool->executor() : nullptr;
  DEC_REQUIRE(is_proper_vertex_coloring(g, initial, executor),
              "initial coloring must be proper");

  LinialResult res;
  res.colors = std::move(initial);
  res.palette = static_cast<int>(id_space);

  if (g.max_degree() == 0) {
    // No edges: everyone can take color 0 with zero communication.
    std::fill(res.colors.begin(), res.colors.end(), 0);
    res.palette = n > 0 ? 1 : 0;
    return res;
  }

  // ScopedNetwork resolves the 0-means-hardware convention itself. Every
  // Linial message is exactly one color, so the declared slot width is 1.
  ScopedNetwork net_scope(pool, g, ledger, "linial", num_threads, cancel,
                          SlotPlan{.max_fields = 1});
  SyncNetwork& net = *net_scope;
  std::int64_t m = id_space;

  // Precompute the (q, d) schedule; all nodes know n and Δ, so the schedule
  // is common knowledge and costs no communication.
  std::vector<LinialStep> schedule;
  {
    std::int64_t mm = m;
    for (;;) {
      const LinialStep s = linial_step_params(mm, g.max_degree());
      if (s.q * s.q >= mm) break;  // no further progress possible
      schedule.push_back(s);
      mm = s.q * s.q;
    }
  }

  std::vector<std::int64_t> work(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    work[static_cast<std::size_t>(v)] = res.colors[static_cast<std::size_t>(v)];
  }

  // Round 0: everyone announces its current color. Rounds 1..T: consume the
  // previous generation of colors, adopt the reduced color, announce it.
  // Node programs write only work/next[v] and their own outbox, so they are
  // safe on the parallel engine and deterministic either way.
  net.round_fast([&](NodeId v, const auto&, auto&& outbox) {
    for (auto&& msg : outbox) msg.assign({work[static_cast<std::size_t>(v)]});
  });

  for (const LinialStep step : schedule) {
    const DigitPoly poly(step.q, step.d);
    std::vector<std::int64_t> next(work);
    net.round_fast([&](NodeId v, const auto& inbox, auto&& outbox) {
      next[static_cast<std::size_t>(v)] =
          reduce_color(poly, work[static_cast<std::size_t>(v)], inbox);
      for (auto&& msg : outbox) {
        msg.assign({next[static_cast<std::size_t>(v)]});
      }
    });
    work = std::move(next);
    m = step.q * step.q;
    ++res.iterations;
  }

  for (NodeId v = 0; v < n; ++v) {
    res.colors[static_cast<std::size_t>(v)] =
        static_cast<Color>(work[static_cast<std::size_t>(v)]);
  }
  res.palette = static_cast<int>(m);
  res.rounds = net.rounds_executed();
  res.max_message_bits = net.audit().max_bits();
  DEC_CHECK(is_proper_vertex_coloring(g, res.colors, executor),
            "Linial produced an improper coloring");
  return res;
}

LinialResult linial_edge_color(const Graph& g, RoundLedger* ledger) {
  const Graph lg = line_graph(g);
  LinialResult res = linial_color(lg, ledger);
  DEC_CHECK(is_proper_edge_coloring(g, res.colors),
            "line-graph coloring is not a proper edge coloring");
  return res;
}

}  // namespace dec
