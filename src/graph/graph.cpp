#include "graph/graph.hpp"

#include <algorithm>
#include <string>

namespace dec {

namespace {

// Edge ids are int32: a list past INT32_MAX edges would wrap num_edges().
void require_edge_ids(std::size_t m) {
  DEC_REQUIRE(m <= static_cast<std::size_t>(INT32_MAX),
              "edge count " + std::to_string(m) +
                  " exceeds 32-bit edge ids (at most 2147483647)");
}

}  // namespace

void Graph::finish_construction(bool adjacency_sorted) {
  // A serial scatter fill: zeroed first, not left default-init
  // (docs/ARCHITECTURE.md "Executor", first-touch rule).
  adj_.assign(edges_.size() * 2, Incidence{});
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (EdgeId e = 0; e < num_edges(); ++e) {
    const auto [u, v] = edges_[static_cast<std::size_t>(e)];
    adj_[cursor[static_cast<std::size_t>(u)]++] = Incidence{v, e};
    adj_[cursor[static_cast<std::size_t>(v)]++] = Incidence{u, e};
  }
  for (NodeId v = 0; v < n_; ++v) {
    if (!adjacency_sorted) {
      auto lo = adj_.begin() + static_cast<std::ptrdiff_t>(
                                   offsets_[static_cast<std::size_t>(v)]);
      auto hi = adj_.begin() + static_cast<std::ptrdiff_t>(
                                   offsets_[static_cast<std::size_t>(v) + 1]);
      std::sort(lo, hi, [](const Incidence& a, const Incidence& b) {
        return a.neighbor < b.neighbor;
      });
      // Simplicity: adjacent entries with equal neighbors are parallel edges.
      for (auto it = lo; it != hi && it + 1 != hi; ++it) {
        DEC_REQUIRE((it + 1)->neighbor != it->neighbor,
                    "parallel edges are not allowed");
      }
    }
    max_degree_ = std::max(max_degree_, degree(v));
  }
  edge_degrees_.assign(edges_.size(), 0);
  for (EdgeId e = 0; e < num_edges(); ++e) {
    const auto [u, v] = edges_[static_cast<std::size_t>(e)];
    edge_degrees_[static_cast<std::size_t>(e)] = degree(u) + degree(v) - 2;
    max_edge_degree_ = std::max(max_edge_degree_, edge_degree(e));
  }
}

Graph::Graph(NodeId n, std::vector<std::pair<NodeId, NodeId>> edges)
    : n_(n), edges_(std::move(edges)) {
  DEC_REQUIRE(n >= 0, "negative node count");
  require_edge_ids(edges_.size());
  offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges_) {
    DEC_REQUIRE(u >= 0 && u < n && v >= 0 && v < n, "edge endpoint out of range");
    DEC_REQUIRE(u != v, "self-loops are not allowed");
    ++offsets_[static_cast<std::size_t>(u) + 1];
    ++offsets_[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i) {
    offsets_[i] += offsets_[i - 1];
  }
  finish_construction(/*adjacency_sorted=*/false);
}

Graph Graph::from_sorted_unique(NodeId n,
                                std::vector<std::pair<NodeId, NodeId>> edges) {
  DEC_REQUIRE(n >= 0, "negative node count");
  require_edge_ids(edges.size());
  Graph g;
  g.n_ = n;
  g.edges_ = std::move(edges);
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  // One validation pass establishes canonical form (u < v, strictly
  // increasing pairs => simple) and counts degrees. Canonical edge order
  // means every node sees neighbors < v (edges where it is the second
  // endpoint, by ascending first endpoint) before neighbors > v (where it
  // is the first, by ascending second endpoint), so the cursor fill emits
  // sorted adjacencies and the per-node sort is skipped.
  std::pair<NodeId, NodeId> prev{-1, -1};
  for (const auto& edge : g.edges_) {
    const auto [u, v] = edge;
    DEC_REQUIRE(u >= 0 && v < n, "edge endpoint out of range");
    DEC_REQUIRE(u < v, "edge list is not in canonical (u < v) form");
    DEC_REQUIRE(prev < edge, "edge list is not sorted and unique");
    prev = edge;
    ++g.offsets_[static_cast<std::size_t>(u) + 1];
    ++g.offsets_[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t i = 1; i < g.offsets_.size(); ++i) {
    g.offsets_[i] += g.offsets_[i - 1];
  }
  g.finish_construction(/*adjacency_sorted=*/true);
  return g;
}

Graph Graph::from_csr(NodeId n, std::span<const std::uint64_t> offsets,
                      std::span<const std::uint32_t> endpoints) {
  DEC_REQUIRE(n >= 0 && n <= kMaxNodeId, "node count out of range");
  DEC_REQUIRE(offsets.size() == static_cast<std::size_t>(n) + 1,
              "CSR offsets section has wrong length");
  DEC_REQUIRE(endpoints.size() % 2 == 0,
              "CSR endpoint section has odd length");
  const std::size_t m = endpoints.size() / 2;
  require_edge_ids(m);
  DEC_REQUIRE(offsets.front() == 0 && offsets.back() == 2 * m,
              "CSR offsets do not span the endpoint section");
  Graph g;
  g.n_ = n;
  g.offsets_.assign(offsets.begin(), offsets.end());
  // Decode endpoints straight out of the mapping, validating canonical form
  // and re-counting degrees against the stored offsets in the same pass —
  // a file whose offsets disagree with its endpoints is rejected, not
  // mis-delivered.
  g.edges_.resize(m);
  std::vector<std::size_t> deg(static_cast<std::size_t>(n) + 1, 0);
  std::pair<NodeId, NodeId> prev{-1, -1};
  for (std::size_t e = 0; e < m; ++e) {
    const std::uint32_t uw = endpoints[2 * e];
    const std::uint32_t vw = endpoints[2 * e + 1];
    DEC_REQUIRE(uw < static_cast<std::uint64_t>(n) &&
                    vw < static_cast<std::uint64_t>(n),
                "CSR edge endpoint out of range");
    const std::pair<NodeId, NodeId> edge{static_cast<NodeId>(uw),
                                         static_cast<NodeId>(vw)};
    DEC_REQUIRE(edge.first < edge.second,
                "CSR edge list is not in canonical (u < v) form");
    DEC_REQUIRE(prev < edge, "CSR edge list is not sorted and unique");
    prev = edge;
    g.edges_[e] = edge;
    ++deg[static_cast<std::size_t>(edge.first) + 1];
    ++deg[static_cast<std::size_t>(edge.second) + 1];
  }
  for (std::size_t i = 1; i < deg.size(); ++i) {
    deg[i] += deg[i - 1];
    DEC_REQUIRE(deg[i] == g.offsets_[i],
                "CSR offsets disagree with endpoint section");
  }
  g.finish_construction(/*adjacency_sorted=*/true);
  return g;
}

EdgeId Graph::find_edge(NodeId u, NodeId v) const {
  DEC_REQUIRE(u >= 0 && u < n_ && v >= 0 && v < n_, "node out of range");
  const auto nb = neighbors(u);
  auto it = std::lower_bound(
      nb.begin(), nb.end(), v,
      [](const Incidence& inc, NodeId target) { return inc.neighbor < target; });
  if (it != nb.end() && it->neighbor == v) return it->edge;
  return kInvalidEdge;
}

}  // namespace dec
