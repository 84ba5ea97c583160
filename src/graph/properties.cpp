#include "graph/properties.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/thread_pool.hpp"

namespace dec {

bool is_proper_vertex_coloring(const Graph& g, const std::vector<Color>& color) {
  DEC_REQUIRE(color.size() == static_cast<std::size_t>(g.num_nodes()),
              "color vector has wrong length");
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    const Color cu = color[static_cast<std::size_t>(u)];
    const Color cv = color[static_cast<std::size_t>(v)];
    if (cu != kUncolored && cu == cv) return false;
  }
  return true;
}

bool is_complete_proper_vertex_coloring(const Graph& g,
                                        const std::vector<Color>& color) {
  for (const Color c : color) {
    if (c == kUncolored) return false;
  }
  return is_proper_vertex_coloring(g, color);
}

namespace {

// Adjacency entries per chunk below which the edge-coloring check stays one
// serial loop. A sharded check pays a dispatch to the executor's helpers:
// ~2 µs while they spin, tens of µs to wake them once parked (the checks
// follow serial stages). 2^14 entries take ~0.13 ms to check on a 4-core
// x86 host, so a chunk repays either; service-sized jobs never dispatch.
constexpr std::size_t kMinEntriesPerChunk = std::size_t{1} << 14;

// Two edges are adjacent iff they share a node, so the check runs per node:
// sort the node's incident colors in a buffer reused across the range's
// nodes and look for a repeat. An uncolored entry is skipped, or fails the
// check when `complete` (every edge is some node's entry).
bool nodes_ok(const Graph& g, const Color* color, std::size_t begin,
              std::size_t end, bool complete) {
  std::vector<Color> seen;
  seen.reserve(static_cast<std::size_t>(g.max_degree()));
  for (std::size_t v = begin; v < end; ++v) {
    seen.clear();
    for (const Incidence& inc : g.neighbors(static_cast<NodeId>(v))) {
      const Color c = color[static_cast<std::size_t>(inc.edge)];
      if (c != kUncolored) {
        seen.push_back(c);
      } else if (complete) {
        return false;
      }
    }
    std::sort(seen.begin(), seen.end());
    if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
      return false;
    }
  }
  return true;
}

// nodes_ok over all nodes, in chunks balanced by adjacency entries.
bool edge_coloring_ok(const Graph& g, const std::vector<Color>& color,
                      bool complete, ThreadPool* executor) {
  DEC_REQUIRE(color.size() == static_cast<std::size_t>(g.num_edges()),
              "color vector has wrong length");
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const std::size_t entries = 2 * static_cast<std::size_t>(g.num_edges());
  const int chunks = chunk_count(executor, entries, kMinEntriesPerChunk);
  if (chunks == 1) return nodes_ok(g, color.data(), 0, n, complete);
  const Incidence* const first = g.neighbors(0).data();
  const std::vector<std::size_t> bound =
      balanced_bounds(n, chunks, [&](std::size_t v) {
        return v == n ? entries
                      : static_cast<std::size_t>(
                            g.neighbors(static_cast<NodeId>(v)).data() - first);
      });
  std::vector<char> ok(static_cast<std::size_t>(chunks), 0);
  executor->run(chunks, [&](int c) {
    const auto cz = static_cast<std::size_t>(c);
    ok[cz] = nodes_ok(g, color.data(), bound[cz], bound[cz + 1], complete);
  });
  return std::all_of(ok.begin(), ok.end(), [](char x) { return x != 0; });
}

}  // namespace

bool is_proper_edge_coloring(const Graph& g, const std::vector<Color>& color,
                             ThreadPool* executor) {
  return edge_coloring_ok(g, color, /*complete=*/false, executor);
}

bool is_complete_proper_edge_coloring(const Graph& g,
                                      const std::vector<Color>& color,
                                      ThreadPool* executor) {
  return edge_coloring_ok(g, color, /*complete=*/true, executor);
}

std::vector<int> vertex_defects(const Graph& g, const std::vector<Color>& color) {
  DEC_REQUIRE(color.size() == static_cast<std::size_t>(g.num_nodes()),
              "color vector has wrong length");
  std::vector<int> defect(static_cast<std::size_t>(g.num_nodes()), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    const Color cu = color[static_cast<std::size_t>(u)];
    const Color cv = color[static_cast<std::size_t>(v)];
    if (cu != kUncolored && cu == cv) {
      ++defect[static_cast<std::size_t>(u)];
      ++defect[static_cast<std::size_t>(v)];
    }
  }
  return defect;
}

std::vector<int> edge_defects(const Graph& g, const std::vector<Color>& color) {
  DEC_REQUIRE(color.size() == static_cast<std::size_t>(g.num_edges()),
              "color vector has wrong length");
  std::vector<int> defect(static_cast<std::size_t>(g.num_edges()), 0);
  // For each node, group incident edges by color; every pair of same-colored
  // incident edges contributes one defect unit to each member.
  std::vector<std::pair<Color, EdgeId>> bucket;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    bucket.clear();
    for (const Incidence& inc : g.neighbors(v)) {
      const Color c = color[static_cast<std::size_t>(inc.edge)];
      if (c != kUncolored) bucket.emplace_back(c, inc.edge);
    }
    std::sort(bucket.begin(), bucket.end());
    for (std::size_t i = 0; i < bucket.size();) {
      std::size_t j = i;
      while (j < bucket.size() && bucket[j].first == bucket[i].first) ++j;
      const int same = static_cast<int>(j - i);
      if (same > 1) {
        for (std::size_t k = i; k < j; ++k) {
          defect[static_cast<std::size_t>(bucket[k].second)] += same - 1;
        }
      }
      i = j;
    }
  }
  return defect;
}

int count_colors(const std::vector<Color>& color) {
  std::unordered_set<Color> distinct;
  for (const Color c : color) {
    if (c != kUncolored) distinct.insert(c);
  }
  return static_cast<int>(distinct.size());
}

int palette_size(const std::vector<Color>& color) {
  Color max_c = -1;
  for (const Color c : color) max_c = std::max(max_c, c);
  return static_cast<int>(max_c + 1);
}

std::int64_t count_uncolored(const std::vector<Color>& color) {
  std::int64_t k = 0;
  for (const Color c : color) {
    if (c == kUncolored) ++k;
  }
  return k;
}

std::vector<int> uncolored_degrees(const Graph& g,
                                   const std::vector<Color>& color) {
  DEC_REQUIRE(color.size() == static_cast<std::size_t>(g.num_edges()),
              "color vector has wrong length");
  std::vector<int> ud(static_cast<std::size_t>(g.num_nodes()), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (color[static_cast<std::size_t>(e)] != kUncolored) continue;
    const auto [u, v] = g.endpoints(e);
    ++ud[static_cast<std::size_t>(u)];
    ++ud[static_cast<std::size_t>(v)];
  }
  return ud;
}

int max_uncolored_edge_degree(const Graph& g, const std::vector<Color>& color) {
  const std::vector<int> ud = uncolored_degrees(g, color);
  int best = 0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (color[static_cast<std::size_t>(e)] != kUncolored) continue;
    const auto [u, v] = g.endpoints(e);
    best = std::max(best, ud[static_cast<std::size_t>(u)] +
                              ud[static_cast<std::size_t>(v)] - 2);
  }
  return best;
}

}  // namespace dec
