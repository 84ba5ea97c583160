#include "coloring/color_reduction.hpp"

#include <algorithm>

#include "coloring/linial.hpp"
#include "util/prime.hpp"

namespace dec {

ReductionResult ap_reduce(const Graph& g, const std::vector<Color>& input,
                          std::int64_t q, RoundLedger* ledger) {
  DEC_REQUIRE(is_prime(static_cast<std::uint64_t>(q)), "q must be prime");
  DEC_REQUIRE(q >= 2 * g.max_degree() + 2, "ap_reduce needs q >= 2Δ+2");
  DEC_REQUIRE(is_proper_vertex_coloring(g, input), "input must be proper");
  const NodeId n = g.num_nodes();
  DEC_REQUIRE(input.size() == static_cast<std::size_t>(n),
              "input coloring has wrong length");
  for (const Color c : input) {
    DEC_REQUIRE(c >= 0 && static_cast<std::int64_t>(c) < q * q,
                "input palette exceeds q^2");
  }

  ReductionResult res;
  res.palette = static_cast<int>(q);

  // shown[v] is what v announces: its final color once settled, otherwise
  // this round's candidate b + a·t (mod q), advanced by a after each round.
  // A node is blocked iff some neighbor shows its candidate — a settled
  // neighbor holding it, or an unsettled one trying it (symmetric
  // deferral). Constant lines (a = 0) are settled from the start; adjacent
  // constant lines have distinct b because the input is proper.
  std::vector<std::int64_t> line_a(static_cast<std::size_t>(n));
  std::vector<std::int64_t> shown(static_cast<std::size_t>(n));
  std::vector<NodeId> unsettled;
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t i = static_cast<std::size_t>(v);
    line_a[i] = input[i] / q;
    shown[i] = input[i] % q;
    if (line_a[i] != 0) unsettled.push_back(v);
  }

  // Each round scans only the unsettled nodes against the start-of-round
  // `shown` (what neighbors announced last round); settlers keep their
  // candidate as final color, the rest advance after the scan.
  for (std::int64_t t = 0; t < q; ++t) {
    std::size_t kept = 0;
    for (const NodeId v : unsettled) {
      const std::int64_t cand = shown[static_cast<std::size_t>(v)];
      bool blocked = false;
      for (const Incidence& inc : g.neighbors(v)) {
        if (shown[static_cast<std::size_t>(inc.neighbor)] == cand) {
          blocked = true;
          break;
        }
      }
      if (blocked) unsettled[kept++] = v;
    }
    unsettled.resize(kept);
    for (const NodeId v : unsettled) {
      const std::size_t i = static_cast<std::size_t>(v);
      shown[i] += line_a[i];
      if (shown[i] >= q) shown[i] -= q;
    }
    ++res.rounds;
    if (ledger != nullptr) ledger->charge("ap_reduce", 1);
    if (unsettled.empty()) break;
  }

  DEC_CHECK(unsettled.empty(), "ap_reduce failed to settle within q rounds");
  res.colors.resize(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    res.colors[static_cast<std::size_t>(v)] =
        static_cast<Color>(shown[static_cast<std::size_t>(v)]);
  }
  DEC_CHECK(is_proper_vertex_coloring(g, res.colors),
            "ap_reduce produced an improper coloring");
  return res;
}

ReductionResult greedy_reduce(const Graph& g, const std::vector<Color>& input,
                              int input_palette, int target,
                              RoundLedger* ledger) {
  DEC_REQUIRE(target >= g.max_degree() + 1,
              "greedy reduction needs target >= Δ+1");
  DEC_REQUIRE(is_proper_vertex_coloring(g, input), "input must be proper");
  for (const Color c : input) {
    DEC_REQUIRE(c >= 0 && c < input_palette, "input palette bound violated");
  }
  ReductionResult res;
  res.colors = input;
  res.palette = std::min(input_palette, target);

  // Bucket the nodes to recolor by input color once, node ids ascending. A
  // re-picked node lands below target and never re-enters a bucket, so the
  // buckets stay exact for every round.
  std::vector<std::vector<NodeId>> bucket(
      static_cast<std::size_t>(std::max(0, input_palette - target)));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const Color c = input[static_cast<std::size_t>(v)];
    if (c >= target) bucket[static_cast<std::size_t>(c - target)].push_back(v);
  }

  // used[c] == stamp marks color c as taken around the node being served.
  std::vector<std::uint32_t> used(static_cast<std::size_t>(target), 0);
  std::uint32_t stamp = 0;
  for (int c = input_palette - 1; c >= target; --c) {
    // All nodes of color c re-pick simultaneously; they are pairwise
    // non-adjacent because the coloring stays proper throughout.
    for (const NodeId v : bucket[static_cast<std::size_t>(c - target)]) {
      ++stamp;
      for (const Incidence& inc : g.neighbors(v)) {
        const Color nc = res.colors[static_cast<std::size_t>(inc.neighbor)];
        if (nc >= 0 && nc < target) used[static_cast<std::size_t>(nc)] = stamp;
      }
      Color pick = kUncolored;
      for (int cand = 0; cand < target; ++cand) {
        if (used[static_cast<std::size_t>(cand)] != stamp) {
          pick = cand;
          break;
        }
      }
      DEC_CHECK(pick != kUncolored,
                "greedy reduction found no free color (target < Δ+1?)");
      res.colors[static_cast<std::size_t>(v)] = pick;
    }
    ++res.rounds;
    if (ledger != nullptr) ledger->charge("greedy_reduce", 1);
  }
  DEC_CHECK(is_proper_vertex_coloring(g, res.colors),
            "greedy reduction produced an improper coloring");
  return res;
}

ReductionResult vertex_color_delta_plus_one(const Graph& g,
                                            RoundLedger* ledger) {
  const LinialResult lin = linial_color(g, ledger);
  if (g.max_degree() == 0) {
    return ReductionResult{lin.colors, lin.palette, lin.rounds};
  }
  const std::int64_t q = static_cast<std::int64_t>(
      next_prime(static_cast<std::uint64_t>(2 * g.max_degree() + 2)));
  // Linial's palette is q_lin² with q_lin = smallest prime > Δ, so it fits
  // under q² for our larger q.
  DEC_CHECK(lin.palette <= q * q, "Linial palette does not fit ap_reduce");
  ReductionResult ap = ap_reduce(g, lin.colors, q, ledger);
  ReductionResult out =
      greedy_reduce(g, ap.colors, ap.palette, g.max_degree() + 1, ledger);
  out.rounds += lin.rounds + ap.rounds;
  return out;
}

}  // namespace dec
