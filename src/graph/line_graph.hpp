// Line-graph construction.
//
// The paper treats edge coloring of G as vertex coloring of the line graph
// L(G). The explicit construction carries every Linial-on-edges stage: the
// (Δ̄+1)-edge coloring (`edge_color_fast_2delta`) of the bipartite leaves
// and the constant-degree tail, `linial_edge_color`, slack boosting's list
// sub-instances, and the tests that cross-check edge-degree formulas.
#pragma once

#include "graph/graph.hpp"

namespace dec {

/// L(G): one node per edge of g; two nodes adjacent iff the edges share an
/// endpoint. Node i of the result corresponds to edge id i of g. Built in
/// O(n + m + |E(L(G))|) with no sort and no intermediate edge list: L(G)'s
/// edge list comes out canonical ((a, b) with a < b, ascending) and its
/// CSR adjacency, neighbor-sorted, is filled in the same pass. Large line
/// graphs are filled in chunks on `executor` (null: serially); the result
/// is bit-identical for every executor. Throws before allocating if L(G)
/// would have more edges than 32-bit edge ids hold.
Graph line_graph(const Graph& g, ThreadPool* executor = nullptr);

}  // namespace dec
