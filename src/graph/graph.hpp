// Immutable undirected graph in CSR form with stable edge identifiers.
//
// Everything in this library runs on dec::Graph: nodes are 0..n-1, edges are
// 0..m-1, and the adjacency of a node enumerates (neighbor, edge id) pairs.
// Edge ids are the identities the edge coloring algorithms color; the "edge
// degree" accessors implement the line-graph degree deg(e) = deg(u)+deg(v)-2
// the paper works with throughout.
//
// Graphs are simple (no self-loops, no parallel edges); GraphBuilder enforces
// this at construction time.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/default_init.hpp"

namespace dec {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;

class ThreadPool;

constexpr NodeId kInvalidNode = -1;
constexpr EdgeId kInvalidEdge = -1;

/// Largest usable node count/id bound. Ids are int32 and several call sites
/// form `id + 1` node counts, so the last representable value is reserved.
constexpr NodeId kMaxNodeId = INT32_MAX - 1;

/// One adjacency entry: the neighbor reached and the id of the edge used.
struct Incidence {
  NodeId neighbor;
  EdgeId edge;
};

class Graph {
 public:
  /// Build from an explicit edge list over nodes 0..n-1. The edge list must
  /// be simple; use GraphBuilder for validation and deduplication. Every
  /// constructor rejects more than INT32_MAX edges (32-bit edge ids).
  Graph(NodeId n, std::vector<std::pair<NodeId, NodeId>> edges);

  Graph() = default;

  /// Fast path for edge lists already in canonical form: every pair (u, v)
  /// with u < v, strictly increasing lexicographically (hence unique), all
  /// endpoints in [0, n). This is exactly what GraphBuilder::build() emits
  /// and what the binary CSR format stores, so loaders skip the O(m log m)
  /// sort/dedup and the per-node adjacency sorts — canonical edge order
  /// makes every adjacency come out neighbor-sorted by construction. The
  /// canonical-form preconditions themselves are still verified in one O(m)
  /// pass (DEC_REQUIRE), so a malformed list cannot produce a broken graph.
  /// The result is bit-identical to Graph(n, edges) on the same input.
  static Graph from_sorted_unique(NodeId n,
                                  std::vector<std::pair<NodeId, NodeId>> edges);

  /// Same fast path fed directly from a mapped CSR file: `offsets` are the
  /// n + 1 adjacency offsets (offsets[n] == 2m) and `endpoints` the m
  /// canonical (u, v) pairs flattened in edge-id order. The offsets replace
  /// the degree-counting pass (they are validated against the endpoint
  /// section); the endpoint section is read exactly once, straight out of
  /// the mapping, with no intermediate edge-list copy.
  static Graph from_csr(NodeId n, std::span<const std::uint64_t> offsets,
                        std::span<const std::uint32_t> endpoints);

  NodeId num_nodes() const { return n_; }
  EdgeId num_edges() const { return static_cast<EdgeId>(edges_.size()); }

  /// Degree of node v.
  int degree(NodeId v) const {
    DEC_REQUIRE(v >= 0 && v < n_, "node out of range");
    return static_cast<int>(offsets_[static_cast<std::size_t>(v) + 1] -
                            offsets_[static_cast<std::size_t>(v)]);
  }

  /// Line-graph degree of edge e: deg(u) + deg(v) - 2. Cached at
  /// construction, so this is a single array load (it sits on the hot path
  /// of every edge-coloring validity sweep).
  int edge_degree(EdgeId e) const {
    DEC_REQUIRE(e >= 0 && e < num_edges(), "edge out of range");
    return edge_degrees_[static_cast<std::size_t>(e)];
  }

  /// Maximum node degree Δ (0 for the empty graph).
  int max_degree() const { return max_degree_; }

  /// Maximum line-graph degree Δ̄ <= 2Δ - 2.
  int max_edge_degree() const { return max_edge_degree_; }

  /// Endpoints of edge e, as stored (first, second).
  std::pair<NodeId, NodeId> endpoints(EdgeId e) const {
    DEC_REQUIRE(e >= 0 && e < num_edges(), "edge out of range");
    return edges_[static_cast<std::size_t>(e)];
  }

  /// The endpoint of e that is not v. Requires v to be an endpoint of e.
  NodeId other_endpoint(EdgeId e, NodeId v) const {
    const auto [a, b] = endpoints(e);
    DEC_REQUIRE(v == a || v == b, "node is not an endpoint of edge");
    return v == a ? b : a;
  }

  /// Adjacency of node v as (neighbor, edge id) pairs, sorted by neighbor.
  std::span<const Incidence> neighbors(NodeId v) const {
    DEC_REQUIRE(v >= 0 && v < n_, "node out of range");
    const auto lo = offsets_[static_cast<std::size_t>(v)];
    const auto hi = offsets_[static_cast<std::size_t>(v) + 1];
    return {adj_.data() + lo, static_cast<std::size_t>(hi - lo)};
  }

  /// All edges as endpoint pairs, indexed by edge id.
  const std::vector<std::pair<NodeId, NodeId>>& edge_list() const {
    return edges_;
  }

  /// Edge id between u and v, or kInvalidEdge (binary search, O(log deg)).
  EdgeId find_edge(NodeId u, NodeId v) const;

  /// Heap bytes held by this graph (edge list, CSR offsets, adjacency,
  /// edge-degree cache) — the topology side of the per-node memory budget
  /// (docs/ARCHITECTURE.md "Graph storage & scale").
  std::size_t memory_bytes() const {
    return edges_.capacity() * sizeof(edges_[0]) +
           offsets_.capacity() * sizeof(offsets_[0]) +
           adj_.capacity() * sizeof(adj_[0]) +
           edge_degrees_.capacity() * sizeof(edge_degrees_[0]);
  }

 private:
  // Fills L(G)'s CSR directly (graph/line_graph.cpp).
  friend Graph line_graph(const Graph& g, ThreadPool* executor);

  /// Shared tail of all constructors: edges_ and offsets_ are final and
  /// validated; fills adj_ (cursor counting sort), degree maxima, and the
  /// edge-degree cache. `adjacency_sorted` says the fill produces
  /// neighbor-sorted adjacencies (true when edges_ is in canonical order),
  /// letting the fast paths skip the per-node sort + parallel-edge check.
  void finish_construction(bool adjacency_sorted);
  NodeId n_ = 0;
  std::vector<std::pair<NodeId, NodeId>> edges_;
  std::vector<std::size_t> offsets_;  // n+1 entries
  // Default-init so line_graph's chunked fill is their first touch; the
  // serial constructors zero them first (finish_construction).
  DefaultInitVector<Incidence> adj_;  // 2m entries
  DefaultInitVector<int> edge_degrees_;  // m entries, deg(u)+deg(v)-2 per edge
  int max_degree_ = 0;
  int max_edge_degree_ = 0;
};

}  // namespace dec
