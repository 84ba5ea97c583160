// Validation predicates and measurements over colorings and orientations.
//
// Everything the test suite and the benchmark harness asserts about algorithm
// output lives here: properness of vertex/edge colorings, defect vectors,
// palette sizes, list compliance hooks. Color -1 is "uncolored" throughout.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace dec {

using Color = std::int32_t;
constexpr Color kUncolored = -1;

/// True iff no edge has two equal-colored (and colored) endpoints.
bool is_proper_vertex_coloring(const Graph& g, const std::vector<Color>& color);

/// True iff every node is colored and the coloring is proper.
bool is_complete_proper_vertex_coloring(const Graph& g,
                                        const std::vector<Color>& color);

/// True iff no two incident colored edges share a color. One per-node loop;
/// large graphs run it in chunks on `executor` (null: serially), with the
/// same answer.
bool is_proper_edge_coloring(const Graph& g, const std::vector<Color>& color,
                             ThreadPool* executor = nullptr);

/// True iff every edge is colored and no two incident edges share a color
/// (the same chunked per-node loop).
bool is_complete_proper_edge_coloring(const Graph& g,
                                      const std::vector<Color>& color,
                                      ThreadPool* executor = nullptr);

/// Defect of each node under a (possibly improper) vertex coloring: the
/// number of neighbors sharing the node's color. Uncolored nodes get 0.
std::vector<int> vertex_defects(const Graph& g, const std::vector<Color>& color);

/// Defect of each edge under a (possibly improper) edge coloring: the number
/// of adjacent edges sharing the edge's color. Uncolored edges get 0.
std::vector<int> edge_defects(const Graph& g, const std::vector<Color>& color);

/// Number of distinct colors used (ignoring kUncolored).
int count_colors(const std::vector<Color>& color);

/// Largest color value used + 1 (0 if nothing colored). The "palette size"
/// bound the paper's statements are about.
int palette_size(const std::vector<Color>& color);

/// Number of uncolored entries.
std::int64_t count_uncolored(const std::vector<Color>& color);

/// Maximum degree among edges of the subgraph induced by uncolored edges:
/// for each uncolored edge, the number of adjacent uncolored edges.
int max_uncolored_edge_degree(const Graph& g, const std::vector<Color>& color);

/// Per-node count of incident uncolored edges.
std::vector<int> uncolored_degrees(const Graph& g,
                                   const std::vector<Color>& color);

}  // namespace dec
