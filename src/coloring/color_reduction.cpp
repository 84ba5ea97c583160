#include "coloring/color_reduction.hpp"

#include <algorithm>

#include "coloring/linial.hpp"
#include "util/prime.hpp"
#include "util/thread_pool.hpp"

namespace dec {

namespace {

// Adjacency entries per chunk below which a reduction sweep stays one
// serial loop (docs/ARCHITECTURE.md "Executor"). An ap_reduce round scans
// its unsettled nodes' entries, mostly with an early exit, and its rounds
// shrink fast: below 2^14 entries per chunk the split rounds read no
// faster than serial on the leaf L(G). A greedy_reduce class visits every
// entry of its members and then scans for a free color, ~7 ns per entry:
// split at 2^10, a ~11.6k-entry class of the leaf L(G) runs in four chunks
// and the 32 classes take 1.3 ms at 4 threads against 1.9 ms split at 2^12
// and 2.7 ms serially.
constexpr std::size_t kMinScanEntriesPerChunk = std::size_t{1} << 14;
constexpr std::size_t kMinRecolorEntriesPerChunk = std::size_t{1} << 10;

// Chunk boundaries over the node list nodes[lo, hi), balanced by the
// adjacency entries `entries_before` prefixes over the list.
std::vector<std::size_t> entry_bounds(
    const std::vector<std::size_t>& entries_before, std::size_t lo,
    std::size_t hi, int chunks) {
  std::vector<std::size_t> bound =
      balanced_bounds(hi - lo, chunks, [&](std::size_t i) {
        return entries_before[lo + i] - entries_before[lo];
      });
  for (std::size_t& b : bound) b += lo;
  return bound;
}

std::size_t degree_of(const Graph& g, NodeId v) {
  return g.neighbors(v).size();
}

}  // namespace

ReductionResult ap_reduce(const Graph& g, const std::vector<Color>& input,
                          std::int64_t q, RoundLedger* ledger,
                          ThreadPool* executor) {
  DEC_REQUIRE(is_prime(static_cast<std::uint64_t>(q)), "q must be prime");
  DEC_REQUIRE(q >= 2 * g.max_degree() + 2, "ap_reduce needs q >= 2Δ+2");
  DEC_REQUIRE(is_proper_vertex_coloring(g, input, executor),
              "input must be proper");
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
  // entries_before[i] counts the adjacency entries of unsettled[0, i).
  std::vector<std::int64_t> line_a(static_cast<std::size_t>(n));
  std::vector<std::int64_t> shown(static_cast<std::size_t>(n));
  std::vector<NodeId> unsettled;
  std::vector<std::size_t> entries_before{0};
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t i = static_cast<std::size_t>(v);
    line_a[i] = input[i] / q;
    shown[i] = input[i] % q;
    if (line_a[i] != 0) {
      unsettled.push_back(v);
      entries_before.push_back(entries_before.back() + degree_of(g, v));
    }
  }

  // Each round scans only the unsettled nodes against the start-of-round
  // `shown` (what neighbors announced last round); settlers keep their
  // candidate as final color, the rest advance after the scan. A scan
  // compacts its range of `unsettled` in place to the nodes still blocked
  // and returns their count; it reads `shown` and writes only its range.
  const auto scan = [&](std::size_t begin, std::size_t end) {
    std::size_t kept = begin;
    for (std::size_t k = begin; k < end; ++k) {
      const NodeId v = unsettled[k];
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
    return kept - begin;
  };
  for (std::int64_t t = 0; t < q; ++t) {
    const int chunks =
        chunk_count(executor, entries_before.back(), kMinScanEntriesPerChunk);
    std::size_t kept = 0;
    if (chunks == 1) {
      kept = scan(0, unsettled.size());
    } else {
      // Chunks balanced by entries; their kept ranges are joined in chunk
      // order, so the list stays ascending exactly as the serial scan
      // leaves it.
      const std::vector<std::size_t> bound =
          entry_bounds(entries_before, 0, unsettled.size(), chunks);
      std::vector<std::size_t> kept_in(static_cast<std::size_t>(chunks));
      executor->run(chunks, [&](int c) {
        const auto cz = static_cast<std::size_t>(c);
        kept_in[cz] = scan(bound[cz], bound[cz + 1]);
      });
      for (std::size_t c = 0; c < kept_in.size(); ++c) {
        if (kept != bound[c]) {
          std::copy_n(unsettled.begin() + static_cast<std::ptrdiff_t>(bound[c]),
                      kept_in[c],
                      unsettled.begin() + static_cast<std::ptrdiff_t>(kept));
        }
        kept += kept_in[c];
      }
    }
    unsettled.resize(kept);
    entries_before.resize(kept + 1);
    for (std::size_t k = 0; k < kept; ++k) {
      const NodeId v = unsettled[k];
      const std::size_t i = static_cast<std::size_t>(v);
      shown[i] += line_a[i];
      if (shown[i] >= q) shown[i] -= q;
      entries_before[k + 1] = entries_before[k] + degree_of(g, v);
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
  DEC_CHECK(is_proper_vertex_coloring(g, res.colors, executor),
            "ap_reduce produced an improper coloring");
  return res;
}

ReductionResult greedy_reduce(const Graph& g, const std::vector<Color>& input,
                              int input_palette, int target,
                              RoundLedger* ledger, ThreadPool* executor) {
  DEC_REQUIRE(target >= g.max_degree() + 1,
              "greedy reduction needs target >= Δ+1");
  DEC_REQUIRE(is_proper_vertex_coloring(g, input, executor),
              "input must be proper");
  for (const Color c : input) {
    DEC_REQUIRE(c >= 0 && c < input_palette, "input palette bound violated");
  }
  ReductionResult res;
  res.colors = input;
  res.palette = std::min(input_palette, target);

  // Bucket the nodes to recolor by input color once, node ids ascending:
  // color c's class is order[begin[c - target], begin[c - target + 1]), and
  // entries_before[i] counts the adjacency entries of order[0, i). A
  // re-picked node lands below target and never re-enters a bucket, so the
  // buckets stay exact for every round.
  const auto classes =
      static_cast<std::size_t>(std::max(0, input_palette - target));
  std::vector<std::size_t> begin(classes + 1, 0);
  for (const Color c : input) {
    if (c >= target) ++begin[static_cast<std::size_t>(c - target) + 1];
  }
  for (std::size_t k = 0; k < classes; ++k) begin[k + 1] += begin[k];
  std::vector<NodeId> order(begin.back());
  std::vector<std::size_t> entries_before(order.size() + 1, 0);
  {
    std::vector<std::size_t> cursor(begin.begin(), begin.end() - 1);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const Color c = input[static_cast<std::size_t>(v)];
      if (c >= target) {
        order[cursor[static_cast<std::size_t>(c - target)]++] = v;
      }
    }
    for (std::size_t k = 0; k < order.size(); ++k) {
      entries_before[k + 1] = entries_before[k] + degree_of(g, order[k]);
    }
  }

  // Recolor order[lo, hi). taken[x] == stamp marks color x as taken
  // around the node being served; each call (a chunk) has its own.
  const auto recolor = [&](std::size_t lo, std::size_t hi) {
    std::vector<std::uint32_t> taken(static_cast<std::size_t>(target), 0);
    std::uint32_t stamp = 0;
    for (std::size_t k = lo; k < hi; ++k) {
      const NodeId v = order[k];
      ++stamp;
      for (const Incidence& inc : g.neighbors(v)) {
        const Color nc = res.colors[static_cast<std::size_t>(inc.neighbor)];
        if (nc >= 0 && nc < target) taken[static_cast<std::size_t>(nc)] = stamp;
      }
      Color pick = kUncolored;
      for (int cand = 0; cand < target; ++cand) {
        if (taken[static_cast<std::size_t>(cand)] != stamp) {
          pick = cand;
          break;
        }
      }
      DEC_CHECK(pick != kUncolored,
                "greedy reduction found no free color (target < Δ+1?)");
      res.colors[static_cast<std::size_t>(v)] = pick;
    }
  };
  for (int c = input_palette - 1; c >= target; --c) {
    // All nodes of color c re-pick simultaneously; they are pairwise
    // non-adjacent because the coloring stays proper throughout, so no
    // chunk reads a color another chunk writes.
    const std::size_t lo = begin[static_cast<std::size_t>(c - target)];
    const std::size_t hi = begin[static_cast<std::size_t>(c - target) + 1];
    const int chunks =
        chunk_count(executor, entries_before[hi] - entries_before[lo],
                    kMinRecolorEntriesPerChunk);
    if (chunks == 1) {
      recolor(lo, hi);
    } else {
      const std::vector<std::size_t> bound =
          entry_bounds(entries_before, lo, hi, chunks);
      executor->run(chunks, [&](int k) {
        const auto kz = static_cast<std::size_t>(k);
        recolor(bound[kz], bound[kz + 1]);
      });
    }
    ++res.rounds;
    if (ledger != nullptr) ledger->charge("greedy_reduce", 1);
  }
  DEC_CHECK(is_proper_vertex_coloring(g, res.colors, executor),
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
