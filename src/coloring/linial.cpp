#include "coloring/linial.hpp"

#include <algorithm>
#include <limits>

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

/// Write the d+1 base-q digits c_0 .. c_d of `color` to `digits`.
void decode_digits(std::int64_t color, std::int64_t q, int d,
                   std::int64_t* digits) {
  for (int i = 0; i <= d; ++i) {
    digits[i] = color % q;
    color /= q;
  }
}

/// Evaluate the polynomial with digits c_0 .. c_d at r over GF(q) (Horner
/// from c_d down).
std::int64_t eval_digits(const std::int64_t* digits, std::int64_t q, int d,
                         std::int64_t r) {
  std::int64_t acc = 0;
  for (int i = d; i >= 0; --i) {
    acc = (acc * r + digits[i]) % q;
  }
  return acc;
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
  for (const Color c : initial) {
    DEC_REQUIRE(c >= 0 && c < id_space, "initial color out of id space");
  }
  DEC_REQUIRE(is_proper_vertex_coloring(g, initial),
              "initial coloring must be proper");

  LinialResult res;
  res.colors = std::move(initial);
  res.palette = static_cast<int>(std::min<std::int64_t>(
      id_space, std::numeric_limits<Color>::max()));

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
    std::vector<std::int64_t> next(work);
    const std::size_t width = static_cast<std::size_t>(step.d) + 1;
    net.round_fast([&](NodeId v, const auto& inbox, auto&& outbox) {
      // Decode every polynomial's digits once per visit: own first, then
      // one block per neighbor. Per-worker scratch keeps the heap off the
      // round path.
      thread_local std::vector<std::int64_t> digits;
      const std::size_t need = width * (inbox.size() + 1);
      if (digits.size() < need) digits.resize(need);
      decode_digits(work[static_cast<std::size_t>(v)], step.q, step.d,
                    digits.data());
      std::int64_t* nbr = digits.data() + width;
      for (const auto& msg : inbox) {
        DEC_CHECK(!msg.empty(), "Linial expects a color from every neighbor");
        decode_digits(msg.at(0), step.q, step.d, nbr);
        nbr += width;
      }
      // Find r with no collision against any neighbor polynomial.
      std::int64_t chosen_r = -1;
      for (std::int64_t r = 0; r < step.q && chosen_r < 0; ++r) {
        const std::int64_t my_val =
            eval_digits(digits.data(), step.q, step.d, r);
        bool clash = false;
        for (std::size_t i = 1; i <= inbox.size() && !clash; ++i) {
          clash = eval_digits(digits.data() + i * width, step.q, step.d, r) ==
                  my_val;
        }
        if (!clash) chosen_r = r;
      }
      DEC_CHECK(chosen_r >= 0,
                "Linial: no collision-free evaluation point (q > Δ·d violated?)");
      const std::int64_t val =
          eval_digits(digits.data(), step.q, step.d, chosen_r);
      next[static_cast<std::size_t>(v)] = chosen_r * step.q + val;
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
  DEC_CHECK(is_proper_vertex_coloring(g, res.colors),
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
