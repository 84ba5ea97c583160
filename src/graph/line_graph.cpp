#include "graph/line_graph.hpp"

#include <vector>

namespace dec {

Graph line_graph(const Graph& g) {
  const NodeId n = g.num_nodes();
  const EdgeId m = g.num_edges();

  // Per-node incidence lists in ascending edge id: one counting pass, since
  // visiting edges in id order appends to each endpoint's list in order.
  std::vector<std::size_t> off(static_cast<std::size_t>(n) + 1, 0);
  std::size_t lg_edges = 0;
  for (NodeId v = 0; v < n; ++v) {
    const std::size_t d = g.neighbors(v).size();
    off[static_cast<std::size_t>(v) + 1] = off[static_cast<std::size_t>(v)] + d;
    if (d > 1) lg_edges += d * (d - 1) / 2;
  }
  std::vector<EdgeId> inc(off.back());
  std::vector<std::size_t> cursor(off.begin(), off.end() - 1);
  for (EdgeId e = 0; e < m; ++e) {
    const auto [u, v] = g.endpoints(e);
    inc[cursor[static_cast<std::size_t>(u)]++] = e;
    inc[cursor[static_cast<std::size_t>(v)]++] = e;
  }

  // L(G)'s edges in canonical order: for each edge a = (u, v) in id order,
  // its L(G)-neighbors b > a are the suffixes after a of u's and v's lists.
  // The suffixes are disjoint (a shared b would be parallel to a, which
  // Graph forbids), so merging them emits each (a, b) once, b ascending.
  // `cursor` walks every node's list in step with a: a is always the next
  // unvisited entry of both endpoints' lists.
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(lg_edges);
  cursor.assign(off.begin(), off.end() - 1);
  for (EdgeId a = 0; a < m; ++a) {
    const auto [u, v] = g.endpoints(a);
    const EdgeId* x = inc.data() + ++cursor[static_cast<std::size_t>(u)];
    const EdgeId* const x_end = inc.data() + off[static_cast<std::size_t>(u) + 1];
    const EdgeId* y = inc.data() + ++cursor[static_cast<std::size_t>(v)];
    const EdgeId* const y_end = inc.data() + off[static_cast<std::size_t>(v) + 1];
    while (x != x_end && y != y_end) {
      edges.emplace_back(a, *x < *y ? *x++ : *y++);
    }
    for (; x != x_end; ++x) edges.emplace_back(a, *x);
    for (; y != y_end; ++y) edges.emplace_back(a, *y);
  }
  return Graph::from_sorted_unique(m, std::move(edges));
}

}  // namespace dec
