// Unit tests for the graph substrate: Graph/Builder/Digraph/Orientation/
// line graph/properties/io.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "coloring/defective.hpp"
#include "coloring/linial.hpp"
#include "graph/bipartite.hpp"
#include "graph/builder.hpp"
#include "graph/digraph.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/line_graph.hpp"
#include "graph/orientation.hpp"
#include "graph/properties.hpp"
#include "graph/subgraph.hpp"
#include "util/thread_pool.hpp"

namespace dec {
namespace {

Graph triangle() { return Graph(3, {{0, 1}, {1, 2}, {0, 2}}); }

TEST(Graph, BasicAccessors) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_EQ(g.edge_degree(0), 2);  // every edge neighbors the other two... deg(u)+deg(v)-2
  EXPECT_EQ(g.max_edge_degree(), 2);
}

TEST(Graph, EndpointsAndOther) {
  const Graph g = triangle();
  const auto [u, v] = g.endpoints(1);
  EXPECT_EQ(u, 1);
  EXPECT_EQ(v, 2);
  EXPECT_EQ(g.other_endpoint(1, 1), 2);
  EXPECT_EQ(g.other_endpoint(1, 2), 1);
  EXPECT_THROW(g.other_endpoint(1, 0), CheckError);
}

TEST(Graph, RejectsSelfLoopsAndParallelEdges) {
  EXPECT_THROW(Graph(2, {{0, 0}}), CheckError);
  EXPECT_THROW(Graph(2, {{0, 1}, {1, 0}}), CheckError);
  EXPECT_THROW(Graph(2, {{0, 1}, {0, 1}}), CheckError);
  EXPECT_THROW(Graph(2, {{0, 2}}), CheckError);
}

TEST(Graph, FindEdge) {
  const Graph g = triangle();
  EXPECT_EQ(g.find_edge(0, 1), 0);
  EXPECT_EQ(g.find_edge(2, 1), 1);
  const Graph p = gen::path(4);
  EXPECT_EQ(p.find_edge(0, 3), kInvalidEdge);
}

TEST(Graph, NeighborsSortedWithEdgeIds) {
  const Graph g = Graph(4, {{2, 3}, {0, 3}, {0, 1}});
  const auto nb = g.neighbors(3);
  ASSERT_EQ(nb.size(), 2u);
  EXPECT_EQ(nb[0].neighbor, 0);
  EXPECT_EQ(nb[1].neighbor, 2);
  EXPECT_EQ(nb[0].edge, g.find_edge(0, 3));
}

TEST(Graph, EmptyGraph) {
  const Graph g = gen::empty(5);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.max_degree(), 0);
  EXPECT_EQ(g.max_edge_degree(), 0);
}

TEST(Graph, EdgeDegreeCacheMatchesFormula) {
  // edge_degree is served from the per-edge cache; it must agree with the
  // defining formula deg(u) + deg(v) - 2 on every edge, and bounds-check.
  Rng rng(7);
  const Graph g = gen::gnp(60, 0.15, rng);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    EXPECT_EQ(g.edge_degree(e), g.degree(u) + g.degree(v) - 2) << "edge " << e;
  }
  EXPECT_THROW(g.edge_degree(-1), CheckError);
  EXPECT_THROW(g.edge_degree(g.num_edges()), CheckError);
}

TEST(Graph, EdgeDegreeFormulaMatchesLineGraph) {
  Rng rng(3);
  const Graph g = gen::gnp(40, 0.2, rng);
  const Graph lg = line_graph(g);
  ASSERT_EQ(lg.num_nodes(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(g.edge_degree(e), lg.degree(e)) << "edge " << e;
  }
  EXPECT_EQ(g.max_edge_degree(), lg.max_degree());
}

TEST(Builder, DeduplicatesAndGrows) {
  GraphBuilder b;
  b.add_edge(0, 5);
  b.add_edge(5, 0);
  b.add_edge(1, 2);
  EXPECT_TRUE(b.has_edge(0, 5));
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.num_nodes(), 6);
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(Builder, RejectsSelfLoop) {
  GraphBuilder b;
  EXPECT_THROW(b.add_edge(3, 3), CheckError);
}

TEST(Builder, TracksSortedAppendsAndAnswersHasEdgeEitherWay) {
  GraphBuilder sorted;
  sorted.reserve_edges(4);
  sorted.add_edge(0, 1);
  sorted.add_edge(0, 2);
  sorted.add_edge(1, 3);
  EXPECT_TRUE(sorted.edges_sorted());  // binary-search fast path
  EXPECT_TRUE(sorted.has_edge(0, 2));
  EXPECT_TRUE(sorted.has_edge(3, 1));  // orientation-insensitive
  EXPECT_FALSE(sorted.has_edge(0, 3));

  GraphBuilder unsorted;
  unsorted.add_edge(1, 3);
  unsorted.add_edge(0, 1);
  EXPECT_FALSE(unsorted.edges_sorted());  // falls back to a linear find
  EXPECT_TRUE(unsorted.has_edge(0, 1));
  EXPECT_FALSE(unsorted.has_edge(0, 3));

  // Both routes end at the same graph.
  const Graph g = std::move(unsorted).build();
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_NE(g.find_edge(1, 3), kInvalidEdge);
}

TEST(Builder, DuplicateAppendClearsSortedFlag) {
  GraphBuilder b;
  b.add_edge(0, 1);
  b.add_edge(0, 1);  // equal, not strictly increasing
  EXPECT_FALSE(b.edges_sorted());
  EXPECT_EQ(std::move(b).build().num_edges(), 1);
}

TEST(Builder, RejectsIdsBeyondNodeIdRange) {
  GraphBuilder b;
  EXPECT_THROW(b.add_edge(0, kMaxNodeId + 1), CheckError);
  EXPECT_THROW(b.add_edge(-2, 1), CheckError);
  b.add_edge(0, 1);  // builder still usable after a rejected append
  EXPECT_EQ(std::move(b).build().num_edges(), 1);
}

TEST(Digraph, InOutAdjacency) {
  const Digraph d(3, {{0, 1}, {1, 2}, {2, 0}, {0, 2}});
  EXPECT_EQ(d.num_arcs(), 4);
  EXPECT_EQ(d.out_degree(0), 2);
  EXPECT_EQ(d.in_degree(0), 1);
  EXPECT_EQ(d.degree(0), 3);
  EXPECT_EQ(d.max_degree(), 3);
  const auto [t, h] = d.arc(1);
  EXPECT_EQ(t, 1);
  EXPECT_EQ(h, 2);
}

TEST(Digraph, AllowsParallelArcsRejectsLoops) {
  EXPECT_NO_THROW(Digraph(2, {{0, 1}, {0, 1}}));
  EXPECT_THROW(Digraph(2, {{0, 0}}), CheckError);
}

TEST(Digraph, ArcDegree) {
  const Digraph d(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(d.arc_degree(0), 1);  // deg(0)+deg(1)-2 = 1+2-2
}

TEST(Orientation, OrientFlipIndegree) {
  const Graph g = triangle();
  Orientation o(g);
  EXPECT_FALSE(o.oriented(0));
  o.orient_towards(0, 1);
  EXPECT_TRUE(o.oriented(0));
  EXPECT_EQ(o.head(0), 1);
  EXPECT_EQ(o.tail(0), 0);
  EXPECT_EQ(o.indegree(1), 1);
  o.flip(0);
  EXPECT_EQ(o.head(0), 0);
  EXPECT_EQ(o.indegree(1), 0);
  EXPECT_EQ(o.indegree(0), 1);
  EXPECT_EQ(o.num_oriented(), 1);
  o.validate();
}

TEST(Orientation, Preconditions) {
  const Graph g = triangle();
  Orientation o(g);
  EXPECT_THROW(o.head(0), CheckError);
  EXPECT_THROW(o.flip(0), CheckError);
  o.orient_towards(0, 0);
  EXPECT_THROW(o.orient_towards(0, 1), CheckError);
  EXPECT_THROW(o.orient_towards(1, 0), CheckError);  // 0 not an endpoint of e1
}

TEST(Bipartite, DetectsBipartiteAndOddCycle) {
  const auto even = try_bipartition(gen::cycle(6));
  ASSERT_TRUE(even.has_value());
  validate_bipartition(gen::cycle(6), *even);
  EXPECT_FALSE(try_bipartition(gen::cycle(5)).has_value());
  EXPECT_FALSE(try_bipartition(triangle()).has_value());
}

TEST(Bipartite, EndpointHelpers) {
  const auto bg = gen::regular_bipartite(4, 2);
  for (EdgeId e = 0; e < bg.graph.num_edges(); ++e) {
    const NodeId u = u_endpoint(bg.graph, bg.parts, e);
    const NodeId v = v_endpoint(bg.graph, bg.parts, e);
    EXPECT_TRUE(bg.parts.in_u(u));
    EXPECT_TRUE(bg.parts.in_v(v));
    EXPECT_NE(u, v);
  }
}

TEST(Bipartite, ValidateRejectsBadSides) {
  const auto bg = gen::regular_bipartite(4, 2);
  Bipartition bad = bg.parts;
  bad.side[static_cast<std::size_t>(bg.graph.num_nodes() - 1)] = 0;
  // Last node has neighbors on side 0, so this must fail.
  EXPECT_THROW(validate_bipartition(bg.graph, bad), CheckError);
}

TEST(Properties, ProperVertexColoring) {
  const Graph g = triangle();
  EXPECT_TRUE(is_proper_vertex_coloring(g, {0, 1, 2}));
  EXPECT_FALSE(is_proper_vertex_coloring(g, {0, 0, 2}));
  // 0 and 2 are adjacent in a triangle, so equal colors are improper even
  // with an uncolored node in between; on a path they are fine.
  EXPECT_FALSE(is_proper_vertex_coloring(g, {0, kUncolored, 0}));
  EXPECT_TRUE(is_proper_vertex_coloring(gen::path(3), {0, kUncolored, 0}));
  EXPECT_FALSE(is_complete_proper_vertex_coloring(g, {0, kUncolored, 1}));
}

TEST(Properties, ProperEdgeColoring) {
  const Graph g = gen::path(4);  // edges 0-1, 1-2, 2-3
  EXPECT_TRUE(is_proper_edge_coloring(g, {0, 1, 0}));
  EXPECT_FALSE(is_proper_edge_coloring(g, {0, 0, 1}));
  EXPECT_TRUE(is_proper_edge_coloring(g, {0, kUncolored, 0}));
  EXPECT_FALSE(is_complete_proper_edge_coloring(g, {0, kUncolored, 0}));
}

// Reference predicate: every pair of distinct edges, adjacent iff they
// share an endpoint.
bool all_pairs_proper_edge_coloring(const Graph& g,
                                    const std::vector<Color>& color) {
  for (EdgeId a = 0; a < g.num_edges(); ++a) {
    for (EdgeId b = a + 1; b < g.num_edges(); ++b) {
      const auto [u, v] = g.endpoints(a);
      const auto [x, y] = g.endpoints(b);
      const bool adjacent = u == x || u == y || v == x || v == y;
      const Color ca = color[static_cast<std::size_t>(a)];
      if (adjacent && ca != kUncolored &&
          ca == color[static_cast<std::size_t>(b)]) {
        return false;
      }
    }
  }
  return true;
}

// First-fit sequential edge coloring: proper, palette <= 2Δ-1.
std::vector<Color> first_fit_edge_coloring(const Graph& g) {
  std::vector<Color> color(static_cast<std::size_t>(g.num_edges()),
                           kUncolored);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    for (Color c = 0;; ++c) {
      bool taken = false;
      for (const NodeId w : {u, v}) {
        for (const Incidence& inc : g.neighbors(w)) {
          taken = taken || color[static_cast<std::size_t>(inc.edge)] == c;
        }
      }
      if (!taken) {
        color[static_cast<std::size_t>(e)] = c;
        break;
      }
    }
  }
  return color;
}

TEST(Properties, ProperEdgeColoringMatchesAllPairsCheck) {
  Rng rng(17);
  int proper = 0, improper = 0, partial = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const Graph g = trial % 3 == 0
                        ? gen::random_regular(12 + 2 * (trial % 5),
                                              3 + trial % 4, rng)
                        : gen::gnp(10 + trial % 17, 0.3, rng);
    if (g.num_edges() < 2) continue;
    std::vector<std::vector<Color>> cases;
    const std::vector<Color> base = first_fit_edge_coloring(g);
    cases.push_back(base);
    // Proper but partly uncolored.
    std::vector<Color> holes = base;
    for (auto& c : holes) {
      if (rng.next_below(3) == 0) c = kUncolored;
    }
    cases.push_back(holes);
    // One edge copies an adjacent edge's color: improper.
    std::vector<Color> clash = base;
    const EdgeId e = static_cast<EdgeId>(
        rng.next_below(static_cast<std::uint64_t>(g.num_edges())));
    const auto [u, v] = g.endpoints(e);
    for (const NodeId w : {u, v}) {
      for (const Incidence& inc : g.neighbors(w)) {
        if (inc.edge != e) {
          clash[static_cast<std::size_t>(e)] =
              clash[static_cast<std::size_t>(inc.edge)];
        }
      }
    }
    cases.push_back(clash);
    // Random colors from a small palette, some uncolored: mostly improper.
    std::vector<Color> noise(static_cast<std::size_t>(g.num_edges()));
    for (auto& c : noise) {
      c = static_cast<Color>(rng.next_below(5)) - 1;  // -1 is kUncolored
    }
    cases.push_back(noise);
    for (const auto& c : cases) {
      const bool want = all_pairs_proper_edge_coloring(g, c);
      const bool complete =
          std::find(c.begin(), c.end(), kUncolored) == c.end();
      EXPECT_EQ(is_proper_edge_coloring(g, c), want) << "trial " << trial;
      EXPECT_EQ(is_complete_proper_edge_coloring(g, c), want && complete)
          << "trial " << trial;
      (want ? proper : improper) += 1;
      partial += complete ? 0 : 1;
    }
  }
  // Every kind of input was exercised.
  EXPECT_GT(proper, 100);
  EXPECT_GT(improper, 100);
  EXPECT_GT(partial, 100);
}

// Past the chunking threshold (2^14 adjacency entries per chunk;
// random_regular(10^4, 16) has 160,000), one conflict at node 0 lands in
// the first chunk and one at node n - 1 in the last; each must fail the
// check on its own, at every executor width.
TEST(Properties, ChunkedEdgeColoringCheckCatchesFirstAndLastChunkConflicts) {
  Rng rng(29);
  const Graph g = gen::random_regular(10000, 16, rng);
  const std::vector<Color> base = first_fit_edge_coloring(g);
  const auto clash_at = [&](NodeId v) {
    std::vector<Color> c = base;
    const auto nb = g.neighbors(v);
    c[static_cast<std::size_t>(nb[0].edge)] =
        c[static_cast<std::size_t>(nb[1].edge)];
    return c;
  };
  const std::vector<Color> first = clash_at(0);
  const std::vector<Color> last = clash_at(g.num_nodes() - 1);
  std::vector<Color> hole = base;
  hole[static_cast<std::size_t>(g.neighbors(g.num_nodes() - 1)[0].edge)] =
      kUncolored;
  for (const int threads : {1, 2, 4}) {
    ThreadPool executor(threads);
    SCOPED_TRACE("threads " + std::to_string(threads));
    EXPECT_TRUE(is_proper_edge_coloring(g, base, &executor));
    EXPECT_TRUE(is_complete_proper_edge_coloring(g, base, &executor));
    EXPECT_FALSE(is_proper_edge_coloring(g, first, &executor));
    EXPECT_FALSE(is_complete_proper_edge_coloring(g, first, &executor));
    EXPECT_FALSE(is_proper_edge_coloring(g, last, &executor));
    EXPECT_FALSE(is_complete_proper_edge_coloring(g, last, &executor));
    EXPECT_TRUE(is_proper_edge_coloring(g, hole, &executor));
    EXPECT_FALSE(is_complete_proper_edge_coloring(g, hole, &executor));
  }
}

TEST(Properties, Defects) {
  const Graph g = gen::star(3);
  const auto vd = vertex_defects(g, {0, 0, 0, 1});
  EXPECT_EQ(vd[0], 2);  // center collides with two of three leaves
  const auto ed = edge_defects(g, {5, 5, 5});
  EXPECT_EQ(ed[0], 2);  // all three star edges share a color
}

TEST(Properties, PaletteAndCounts) {
  const std::vector<Color> c{2, kUncolored, 7, 2};
  EXPECT_EQ(count_colors(c), 2);
  EXPECT_EQ(palette_size(c), 8);
  EXPECT_EQ(count_uncolored(c), 1);
}

TEST(Properties, UncoloredDegrees) {
  const Graph g = gen::star(3);
  const std::vector<Color> c{kUncolored, 0, kUncolored};
  const auto ud = uncolored_degrees(g, c);
  EXPECT_EQ(ud[0], 2);
  EXPECT_EQ(max_uncolored_edge_degree(g, c), 1);
}

TEST(Io, EdgeListRoundTrip) {
  Rng rng(4);
  const Graph g = gen::gnp(20, 0.3, rng);
  std::stringstream ss;
  write_edge_list(ss, g);
  const Graph h = read_edge_list(ss);
  EXPECT_EQ(h.num_nodes(), g.num_nodes());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  EXPECT_EQ(h.edge_list(), g.edge_list());
}

TEST(Io, RejectsMalformedInput) {
  std::stringstream empty;
  EXPECT_THROW(read_edge_list(empty), CheckError);
  std::stringstream truncated("3 2\n0 1\n");
  EXPECT_THROW(read_edge_list(truncated), CheckError);
}

TEST(Io, HostileHeaderDoesNotDriveAllocation) {
  // A header claiming 2^31 - 1 edges over a three-token body must fail at
  // the first missing edge, not attempt a multi-GB reserve first.
  std::stringstream hostile("3 2147483647\n0 1\n");
  try {
    read_edge_list(hostile);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated edge section"),
              std::string::npos)
        << e.what();
  }
  // Counts beyond the id domains are rejected from the header alone.
  std::stringstream big_n("2147483647 0\n");
  EXPECT_THROW(read_edge_list(big_n), CheckError);
  std::stringstream big_m("3 2147483648\n");
  EXPECT_THROW(read_edge_list(big_m), CheckError);
  std::stringstream negative("-1 0\n");
  EXPECT_THROW(read_edge_list(negative), CheckError);
}

TEST(Io, ReportsOffendingLineForBadEndpoint) {
  std::stringstream bad("3 2\n0 1\n1 7\n");
  try {
    read_edge_list(bad);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("\"1 7\""), std::string::npos) << msg;
  }
}

TEST(Io, DotExportMentionsColors) {
  const Graph g = gen::path(3);
  const std::vector<Color> colors{4, 9};
  const std::string dot = to_dot(g, &colors);
  EXPECT_NE(dot.find("0 -- 1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"9\""), std::string::npos);
}

TEST(LineGraph, StarBecomesComplete) {
  const Graph star = gen::star(4);
  const Graph lg = line_graph(star);
  EXPECT_EQ(lg.num_nodes(), 4);
  EXPECT_EQ(lg.num_edges(), 6);  // K4
}

// Reference L(G): all pairs of distinct edges sharing an endpoint.
std::set<std::pair<NodeId, NodeId>> all_pairs_line_edges(const Graph& g) {
  std::set<std::pair<NodeId, NodeId>> out;
  for (EdgeId a = 0; a < g.num_edges(); ++a) {
    for (EdgeId b = a + 1; b < g.num_edges(); ++b) {
      const auto [u, v] = g.endpoints(a);
      const auto [x, y] = g.endpoints(b);
      if (u == x || u == y || v == x || v == y) out.emplace(a, b);
    }
  }
  return out;
}

// Reference L(G) built the pre-direct-fill way: every pair of edges at each
// node, sorted, through Graph::from_sorted_unique. Near-linear, so it also
// serves the inputs too large for the all-pairs set.
Graph sorted_pairs_line_graph(const Graph& g) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nb = g.neighbors(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      for (std::size_t j = i + 1; j < nb.size(); ++j) {
        pairs.emplace_back(std::min(nb[i].edge, nb[j].edge),
                           std::max(nb[i].edge, nb[j].edge));
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return Graph::from_sorted_unique(g.num_edges(), std::move(pairs));
}

// L(G) at `threads` executor threads against the sorted-pairs reference:
// the same edge list, the same adjacency (order and edge ids), the same
// degree caches; the all-pairs set as well when g is small.
void expect_line_graph_matches_reference(const Graph& g, const char* name,
                                         int threads) {
  ThreadPool executor(threads);
  const Graph lg = line_graph(g, &executor);
  SCOPED_TRACE(std::string(name) + " at " + std::to_string(threads) +
               " threads");
  ASSERT_EQ(lg.num_nodes(), g.num_edges());
  const auto& edges = lg.edge_list();
  // Canonical: (a, b) with a < b, strictly increasing, hence unique.
  for (std::size_t i = 0; i < edges.size(); ++i) {
    ASSERT_LT(edges[i].first, edges[i].second) << "edge " << i;
    if (i > 0) ASSERT_LT(edges[i - 1], edges[i]) << "edge " << i;
  }
  if (g.num_edges() <= 1000) {
    const std::set<std::pair<NodeId, NodeId>> got(edges.begin(), edges.end());
    EXPECT_EQ(got, all_pairs_line_edges(g));
  }
  const Graph ref = sorted_pairs_line_graph(g);
  ASSERT_EQ(edges, ref.edge_list());
  EXPECT_EQ(lg.max_degree(), ref.max_degree());
  EXPECT_EQ(lg.max_edge_degree(), ref.max_edge_degree());
  for (NodeId a = 0; a < lg.num_nodes(); ++a) {
    ASSERT_EQ(lg.degree(a), g.edge_degree(a)) << "node " << a;
    const auto nb = lg.neighbors(a);
    const auto want = ref.neighbors(a);
    ASSERT_EQ(nb.size(), want.size()) << "node " << a;
    for (std::size_t i = 0; i < nb.size(); ++i) {
      ASSERT_EQ(nb[i].neighbor, want[i].neighbor) << "node " << a;
      ASSERT_EQ(nb[i].edge, want[i].edge) << "node " << a;
    }
  }
  for (EdgeId e = 0; e < lg.num_edges(); ++e) {
    ASSERT_EQ(lg.edge_degree(e), ref.edge_degree(e)) << "edge " << e;
  }
}

// The split-0 bipartite leaf congest_edge_coloring colors on
// random_regular(10^4, 16): its L(G) (~0.58M edges) spans several chunks.
Graph leaf_sized_bipartite_subgraph() {
  Rng rng(9);
  const Graph g = gen::random_regular(10000, 16, rng);
  const LinialResult lin = linial_color(g);
  const DefectiveResult classes =
      defective_4_coloring(g, lin.colors, lin.palette, 1.0 / 6.0);
  std::vector<bool> take(static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    take[static_cast<std::size_t>(e)] =
        (classes.colors[static_cast<std::size_t>(u)] >= 2) !=
        (classes.colors[static_cast<std::size_t>(v)] >= 2);
  }
  return edge_subgraph(g, take).graph;
}

// random_regular(2000, 16) spread over 2,500 node ids (every fifth id
// isolated), plus three disjoint edges whose L(G) nodes are isolated.
Graph graph_with_isolated_nodes() {
  Rng rng(23);
  const Graph g = gen::random_regular(2000, 16, rng);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (const auto& [u, v] : g.edge_list()) {
    edges.emplace_back(u + u / 4, v + v / 4);
  }
  for (NodeId i = 0; i < 3; ++i) edges.emplace_back(2500 + 2 * i, 2501 + 2 * i);
  return Graph(2510, std::move(edges));
}

TEST(LineGraph, MatchesAllPairsReferenceAndIsCanonical) {
  Rng rng(19);
  const std::vector<std::pair<const char*, Graph>> inputs = [&] {
    std::vector<std::pair<const char*, Graph>> v;
    v.emplace_back("gnp", gen::gnp(40, 0.15, rng));
    v.emplace_back("dense gnp", gen::gnp(25, 0.5, rng));
    v.emplace_back("star", gen::star(7));
    v.emplace_back("regular", gen::random_regular(30, 5, rng));
    v.emplace_back("empty", gen::empty(4));
    v.emplace_back("single edge", Graph(2, {{0, 1}}));
    // Edge ids not in canonical order: L(G) node ids follow g's edge ids.
    v.emplace_back("unsorted ids",
                   Graph(5, {{3, 4}, {0, 2}, {2, 3}, {1, 2}, {0, 4}}));
    // Past the chunking threshold (2^16 L(G) edges per chunk): the real
    // leaf, a star with Δ = n - 1 whose L(G) = K_800 (edge a emits 799 - a
    // edges, so balanced chunks hold very different edge counts), and
    // isolated nodes in g and in L(G).
    v.emplace_back("leaf-sized bipartite", leaf_sized_bipartite_subgraph());
    v.emplace_back("star 800", gen::star(800));
    v.emplace_back("isolated nodes", graph_with_isolated_nodes());
    return v;
  }();
  for (const auto& [name, g] : inputs) {
    for (const int threads : {1, 2, 4}) {
      expect_line_graph_matches_reference(g, name, threads);
    }
  }
}

TEST(LineGraph, EdgeCountPastEdgeIdsThrowsBeforeAllocating) {
  // L(star(65537)) = K_65537 has C(65537, 2) = 2,147,516,416 edges, more
  // than INT32_MAX: refused from the counting pass, before the ~17 GB fill.
  const Graph star = gen::star(65537);
  try {
    (void)line_graph(star);
    FAIL() << "expected a CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("2147516416"), std::string::npos)
        << e.what();
  }
}

TEST(LineGraph, EmptyAndSingleEdge) {
  EXPECT_EQ(line_graph(gen::empty(3)).num_nodes(), 0);
  const Graph one(2, {{0, 1}});
  const Graph lg = line_graph(one);
  EXPECT_EQ(lg.num_nodes(), 1);
  EXPECT_EQ(lg.num_edges(), 0);
}

}  // namespace
}  // namespace dec
