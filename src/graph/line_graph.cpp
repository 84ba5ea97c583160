#include "graph/line_graph.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "util/thread_pool.hpp"

namespace dec {

namespace {

// Emitted L(G) edges per chunk below which the fill stays one serial pass.
// A sharded fill pays a dispatch to the executor's helpers (~2 µs) plus one
// O(n + m) cursor setup per chunk (~0.1–0.3 ms at m = 64k), which 2^16
// emitted edges (~0.8 ms of fill on a 4-core x86 host) repay; the L(G)s of
// service-sized jobs stay far below it (docs/ARCHITECTURE.md "Executor").
constexpr std::size_t kMinEdgesPerChunk = std::size_t{1} << 16;

}  // namespace

Graph line_graph(const Graph& g, ThreadPool* executor) {
  const NodeId n = g.num_nodes();
  const EdgeId m = g.num_edges();
  const std::size_t mz = static_cast<std::size_t>(m);
  DEC_REQUIRE(m <= kMaxNodeId, "line graph of " + std::to_string(m) +
                                   " edges exceeds the 32-bit node ids");

  // Per-node incidence lists in ascending edge id, laid out like g's
  // adjacency: one counting pass, since visiting edges in id order appends
  // to each endpoint's list in order. The same pass counts each edge a's
  // L(G)-neighbors above it (the entries after a in both endpoints' lists),
  // whose prefix sums are the ids of L(G)'s canonical edges: (a, b) with
  // a < b, ascending, so the edges of a start at first_edge[a].
  const std::size_t* const off = g.offsets_.data();
  const std::pair<NodeId, NodeId>* const g_edges = g.edges_.data();
  const int* const g_degree = g.edge_degrees_.data();
  std::vector<EdgeId> inc(g.adj_.size());
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  std::vector<std::size_t> first_edge(mz + 1, 0);
  std::vector<std::size_t> lg_off(mz + 1, 0);  // L(G)'s adjacency offsets
  for (std::size_t e = 0; e < mz; ++e) {
    const auto u = static_cast<std::size_t>(g_edges[e].first);
    const auto v = static_cast<std::size_t>(g_edges[e].second);
    const std::size_t iu = cursor[u]++;
    const std::size_t iv = cursor[v]++;
    inc[iu] = static_cast<EdgeId>(e);
    inc[iv] = static_cast<EdgeId>(e);
    first_edge[e + 1] =
        first_edge[e] + (off[u + 1] - iu - 1) + (off[v + 1] - iv - 1);
    lg_off[e + 1] = lg_off[e] + static_cast<std::size_t>(g_degree[e]);
  }
  const std::size_t lg_edges = first_edge.back();
  DEC_REQUIRE(lg_edges <= static_cast<std::size_t>(INT32_MAX),
              "line graph would have " + std::to_string(lg_edges) +
                  " edges, more than the 32-bit edge ids hold (2147483647)" +
                  " — split the input (its max edge degree is " +
                  std::to_string(g.max_edge_degree()) + ")");

  Graph lg;
  lg.n_ = static_cast<NodeId>(m);
  lg.offsets_ = std::move(lg_off);
  lg.edges_.resize(lg_edges);
  lg.adj_.resize(2 * lg_edges);
  lg.edge_degrees_.resize(lg_edges);
  lg.max_degree_ = g.max_edge_degree();

  // L(G) is filled directly, in chunks of consecutive edges a balanced by
  // the L(G) edges each emits. For each a = (u, v) in id order, its
  // L(G)-neighbors b > a are the suffixes after a of u's and v's lists.
  // The suffixes are disjoint (a shared b would be parallel to a, which
  // Graph forbids), so merging them emits each (a, b) once, b ascending:
  // the edge (a, b) itself, the upper part of a's adjacency (the b > a,
  // after its lower part), and b's lower-part entry for a. Each b receives
  // its lower entries in ascending a, so every adjacency comes out
  // neighbor-sorted, exactly as Graph::from_sorted_unique would fill it.
  const int chunks = chunk_count(executor, lg_edges, kMinEdgesPerChunk);
  const std::vector<std::size_t> bound = balanced_bounds(
      mz, chunks, [&](std::size_t a) { return first_edge[a]; });
  std::vector<int> chunk_max_edge_degree(static_cast<std::size_t>(chunks), 0);
  const auto fill = [&](int c) {
    const auto a_begin = static_cast<EdgeId>(bound[static_cast<std::size_t>(c)]);
    const auto a_end = static_cast<EdgeId>(bound[static_cast<std::size_t>(c) + 1]);
    // Each node's list cursor at the chunk's first edge (a is always the
    // next unvisited entry of both endpoints' lists), and from it each
    // later edge b's lower-part cursor: its L(G)-neighbors below a_begin
    // are filled by earlier chunks.
    std::vector<std::size_t> at(g.offsets_.begin(), g.offsets_.end() - 1);
    if (a_begin > 0) {
      for (std::size_t v = 0; v < static_cast<std::size_t>(n); ++v) {
        at[v] = static_cast<std::size_t>(
            std::lower_bound(inc.data() + off[v], inc.data() + off[v + 1],
                             a_begin) -
            inc.data());
      }
    }
    std::vector<std::size_t> lower(mz - static_cast<std::size_t>(a_begin));
    for (std::size_t b = static_cast<std::size_t>(a_begin); b < mz; ++b) {
      const auto u = static_cast<std::size_t>(g_edges[b].first);
      const auto v = static_cast<std::size_t>(g_edges[b].second);
      lower[b - static_cast<std::size_t>(a_begin)] =
          lg.offsets_[b] + (at[u] - off[u]) + (at[v] - off[v]);
    }
    std::pair<NodeId, NodeId>* const edges = lg.edges_.data();
    Incidence* const adj = lg.adj_.data();
    int* const edge_degree = lg.edge_degrees_.data();
    int max_edge_degree = 0;
    for (EdgeId a = a_begin; a < a_end; ++a) {
      const auto az = static_cast<std::size_t>(a);
      const auto u = static_cast<std::size_t>(g_edges[az].first);
      const auto v = static_cast<std::size_t>(g_edges[az].second);
      const EdgeId* x = inc.data() + ++at[u];
      const EdgeId* const x_end = inc.data() + off[u + 1];
      const EdgeId* y = inc.data() + ++at[v];
      const EdgeId* const y_end = inc.data() + off[v + 1];
      std::size_t id = first_edge[az];
      std::size_t up = lg.offsets_[az + 1] - (first_edge[az + 1] - id);
      const int deg_a = g_degree[az];
      // Graph::from_sorted_unique's canonical-form checks, on each edge as
      // it is emitted: every b exceeds a and the b before it (so the edges
      // are (a, b) with a < b, strictly increasing) and is a node of L(G).
      EdgeId last = a;
      const auto emit = [&](EdgeId b) {
        DEC_REQUIRE(last < b, "edge list is not sorted and unique");
        DEC_REQUIRE(b < lg.n_, "edge endpoint out of range");
        last = b;
        const auto lid = static_cast<EdgeId>(id);
        edges[id] = {a, b};
        adj[up++] = Incidence{b, lid};
        adj[lower[static_cast<std::size_t>(b - a_begin)]++] = Incidence{a, lid};
        const int d = deg_a + g_degree[static_cast<std::size_t>(b)] - 2;
        edge_degree[id] = d;
        max_edge_degree = std::max(max_edge_degree, d);
        ++id;
      };
      while (x != x_end && y != y_end) emit(*x < *y ? *x++ : *y++);
      for (; x != x_end; ++x) emit(*x);
      for (; y != y_end; ++y) emit(*y);
    }
    chunk_max_edge_degree[static_cast<std::size_t>(c)] = max_edge_degree;
  };
  if (chunks == 1) {
    fill(0);
  } else {
    executor->run(chunks, fill);
  }
  lg.max_edge_degree_ = *std::max_element(chunk_max_edge_degree.begin(),
                                          chunk_max_edge_degree.end());
  return lg;
}

}  // namespace dec
