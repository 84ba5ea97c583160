// Tests for the (2+ε)Δ bipartite edge coloring (Lemma 6.1).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "core/bipartite_coloring.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace dec {
namespace {

TEST(BipartiteColoring, ProperOnRegularGraphs) {
  for (const int d : {4, 8, 16}) {
    const auto bg = gen::regular_bipartite(8 * d, d);
    const auto r = bipartite_edge_coloring(bg.graph, bg.parts, 1.0);
    EXPECT_TRUE(is_complete_proper_edge_coloring(bg.graph, r.colors));
    for (const Color c : r.colors) {
      EXPECT_GE(c, 0);
      EXPECT_LT(c, r.palette);
    }
  }
}

TEST(BipartiteColoring, PaletteWithinTwoPlusEpsDelta) {
  for (const int d : {8, 16, 32, 64}) {
    const auto bg = gen::regular_bipartite(4 * d, d);
    const auto r = bipartite_edge_coloring(bg.graph, bg.parts, 1.0);
    // (2+ε)Δ with ε = 1: palette <= 3Δ.
    EXPECT_LE(r.palette, 3 * d) << "d=" << d;
    EXPECT_TRUE(is_complete_proper_edge_coloring(bg.graph, r.colors));
  }
}

TEST(BipartiteColoring, ShardedRunsAreBitIdentical) {
  // The recursive halving feeds every split through the substrate's
  // defective 2EC; sharding that engine must not change a single color or
  // the parallel-part round accounting.
  const auto bg = gen::regular_bipartite(64, 16);
  RoundLedger serial_ledger;
  const auto serial = bipartite_edge_coloring(bg.graph, bg.parts, 1.0,
                                              ParamMode::kPractical,
                                              &serial_ledger, 1);
  for (const int threads : {2, 4}) {
    RoundLedger ledger;
    const auto parallel = bipartite_edge_coloring(
        bg.graph, bg.parts, 1.0, ParamMode::kPractical, &ledger, threads);
    EXPECT_EQ(serial.colors, parallel.colors) << "threads " << threads;
    EXPECT_EQ(serial.rounds, parallel.rounds) << "threads " << threads;
    EXPECT_EQ(serial.palette, parallel.palette) << "threads " << threads;
    EXPECT_EQ(serial_ledger.breakdown(), ledger.breakdown())
        << "threads " << threads;
  }
}

TEST(BipartiteColoring, DisjointRangesPerPart) {
  const auto bg = gen::regular_bipartite(256, 128);
  const auto r = bipartite_edge_coloring(bg.graph, bg.parts, 1.0);
  EXPECT_TRUE(is_complete_proper_edge_coloring(bg.graph, r.colors));
  if (r.levels > 0) {
    EXPECT_EQ(r.palette, (1 << r.levels) * (r.leaf_degree_bound + 1));
  }
}

TEST(BipartiteColoring, IrregularGraphs) {
  Rng rng(80);
  const auto bg = gen::random_bipartite(120, 120, 0.1, rng);
  const auto r = bipartite_edge_coloring(bg.graph, bg.parts, 0.5);
  EXPECT_TRUE(is_complete_proper_edge_coloring(bg.graph, r.colors));
  EXPECT_LE(r.palette, 2 * bg.graph.max_edge_degree() + 8);
}

TEST(BipartiteColoring, EmptyGraph) {
  const auto bg = gen::regular_bipartite(4, 0);
  const auto r = bipartite_edge_coloring(bg.graph, bg.parts, 1.0);
  EXPECT_EQ(r.palette, 0);
}

TEST(BipartiteColoring, SmallEpsilonSkipsSplitting) {
  // A tight palette budget forbids levels; the leaf pipeline handles all.
  const auto bg = gen::regular_bipartite(64, 8);
  const auto r = bipartite_edge_coloring(bg.graph, bg.parts, 0.05);
  EXPECT_EQ(r.levels, 0);
  EXPECT_LE(r.palette, bg.graph.max_edge_degree() + 1);
  EXPECT_TRUE(is_complete_proper_edge_coloring(bg.graph, r.colors));
}

TEST(BipartiteColoring, RejectsBadEps) {
  const auto bg = gen::regular_bipartite(4, 1);
  EXPECT_THROW(bipartite_edge_coloring(bg.graph, bg.parts, 0.0), CheckError);
  EXPECT_THROW(bipartite_edge_coloring(bg.graph, bg.parts, 1.5), CheckError);
}

TEST(BipartiteColoring, MatchingIsOneColor) {
  const auto bg = gen::regular_bipartite(10, 1);
  const auto r = bipartite_edge_coloring(bg.graph, bg.parts, 1.0);
  EXPECT_LE(r.palette, 1);
  EXPECT_TRUE(is_complete_proper_edge_coloring(bg.graph, r.colors));
}

// A hub-and-leaves bipartite graph: `hubs` hubs per side, every hub joined
// to every hub of the other side and to `leaves` random leaves (of
// `pool_size`) of the other side. A few high-degree hubs push the max edge
// degree past ~760, the smallest Δ̄ for which ε = 1 picks k = 2 split
// levels, with only a few thousand edges.
BipartiteGraph hub_graph(int hubs, int leaves, NodeId pool_size,
                         std::uint64_t seed) {
  Rng rng(seed);
  const NodeId side = hubs + pool_size;  // U = [0, side), V = [side, 2·side)
  std::set<std::pair<NodeId, NodeId>> seen;
  std::vector<std::pair<NodeId, NodeId>> edges;
  const auto add = [&](NodeId u, NodeId v) {
    if (seen.emplace(u, v).second) edges.emplace_back(u, side + v);
  };
  const auto leaf = [&] {
    return hubs + static_cast<NodeId>(
                      rng.next_below(static_cast<std::uint64_t>(pool_size)));
  };
  for (NodeId h = 0; h < hubs; ++h) {
    for (NodeId h2 = 0; h2 < hubs; ++h2) add(h, h2);
  }
  for (NodeId h = 0; h < hubs; ++h) {
    for (int i = 0; i < leaves; ++i) {
      add(h, leaf());
      add(leaf(), h);
    }
  }
  BipartiteGraph bg{Graph(2 * side, std::move(edges)), {}};
  bg.parts.side.assign(static_cast<std::size_t>(2 * side), 0);
  for (NodeId v = side; v < 2 * side; ++v) {
    bg.parts.side[static_cast<std::size_t>(v)] = 1;
  }
  return bg;
}

TEST(BipartiteColoring, MultiLevelSplitPartitionsEveryParent) {
  // With k >= 2 levels every split must partition its parent's edges into
  // two non-empty children. A relabel-in-place bug once handed part 0's
  // blue edges to part 1 at level 1, which split them again: leaf part 1
  // ended empty and parts 2-3 overloaded, past the leaf-degree bound on the
  // two-hub input. The leaf part of edge e is colors[e] / (D_k + 1); the
  // ancestor at level l of leaf part p is p >> (k - l).
  for (const int hubs : {1, 2}) {
    const BipartiteGraph bg = hub_graph(hubs, 450, 5000, 5);
    const auto r = bipartite_edge_coloring(bg.graph, bg.parts, 1.0);
    ASSERT_GE(r.levels, 2) << "hubs " << hubs;
    EXPECT_TRUE(is_complete_proper_edge_coloring(bg.graph, r.colors));
    const int range = r.leaf_degree_bound + 1;
    std::vector<std::int64_t> leaf_size(std::size_t{1} << r.levels, 0);
    for (const Color c : r.colors) {
      ++leaf_size[static_cast<std::size_t>(c / range)];
    }
    for (int level = 0; level < r.levels; ++level) {
      // Parent q at `level` owns leaves [q << shift, (q + 1) << shift).
      const int shift = r.levels - level;
      for (std::size_t q = 0; q < (std::size_t{1} << level); ++q) {
        std::int64_t children[2] = {0, 0};
        for (std::size_t p = q << shift; p < (q + 1) << shift; ++p) {
          children[(p >> (shift - 1)) & 1] += leaf_size[p];
        }
        const std::int64_t parent = children[0] + children[1];
        if (parent == 0) continue;
        EXPECT_GT(children[0], 0) << "hubs " << hubs << " level " << level
                                  << " parent " << q;
        EXPECT_GT(children[1], 0) << "hubs " << hubs << " level " << level
                                  << " parent " << q;
      }
    }
  }
}

}  // namespace
}  // namespace dec
