#include "sim/topology.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace dec {

std::shared_ptr<const NetworkTopology> NetworkTopology::plan(const Graph& g,
                                                             int num_threads) {
  DEC_REQUIRE(num_threads >= 1, "num_threads must be >= 1");
  auto topo = std::shared_ptr<NetworkTopology>(new NetworkTopology());
  topo->n_ = g.num_nodes();
  topo->offsets_.assign(static_cast<std::size_t>(g.num_nodes()) + 1, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    topo->offsets_[static_cast<std::size_t>(v) + 1] =
        topo->offsets_[static_cast<std::size_t>(v)] + g.neighbors(v).size();
  }
  const std::size_t slots = topo->offsets_.back();
  // Slot indices are stored as uint32 (peer permutation, touched lists);
  // int32 edge ids keep 2m below 2^32, but guard against silent wrap if
  // that ever changes.
  DEC_REQUIRE(slots <= static_cast<std::size_t>(UINT32_MAX) - 1,
              "slot plane too large for 32-bit slot indices");

  // Where does the message written at slot (v, i) arrive? At the slot of the
  // same edge in the neighbor's adjacency. Adjacencies are neighbor-sorted
  // and simple, so visiting nodes v in ascending order and, for each, its
  // neighbors w > v meets every w's lower neighbors in w's own order: a
  // cursor per node walks w's adjacency from its start and lands on v's
  // edge each time. When v's turn comes, its own cursor has passed all its
  // lower neighbors and sits on its first upper one.
  topo->peer_slot_.assign(slots, 0);
  std::vector<std::size_t> cursor(topo->offsets_.begin(),
                                  topo->offsets_.end() - 1);
  // The graph's adjacency shares the plan's CSR slot indexing.
  const Incidence* const adj =
      g.num_nodes() > 0 ? g.neighbors(0).data() : nullptr;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto vz = static_cast<std::size_t>(v);
    for (std::size_t slot = cursor[vz]; slot < topo->offsets_[vz + 1];
         ++slot) {
      const std::size_t peer =
          cursor[static_cast<std::size_t>(adj[slot].neighbor)]++;
      topo->peer_slot_[slot] = static_cast<std::uint32_t>(peer);
      topo->peer_slot_[peer] = static_cast<std::uint32_t>(slot);
    }
  }

  // Iota map for direct-addressed rounds (see iota_map()); sized to the
  // largest degree so every box's entries index into it.
  std::size_t max_degree = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    max_degree = std::max(max_degree,
                          topo->offsets_[static_cast<std::size_t>(v) + 1] -
                              topo->offsets_[static_cast<std::size_t>(v)]);
  }
  topo->iota_map_.resize(max_degree);
  for (std::size_t i = 0; i < max_degree; ++i) {
    topo->iota_map_[i] = static_cast<std::uint32_t>(i);
  }

  // Shard nodes into contiguous ranges balanced by slot count.
  const int shards =
      std::max(1, std::min<int>(num_threads, g.num_nodes() + 1));
  topo->num_shards_ = shards;
  topo->shard_begin_.assign(static_cast<std::size_t>(shards) + 1,
                            g.num_nodes());
  topo->shard_begin_[0] = 0;
  {
    NodeId v = 0;
    for (int s = 0; s < shards; ++s) {
      topo->shard_begin_[static_cast<std::size_t>(s)] = v;
      const std::size_t target = (slots * (static_cast<std::size_t>(s) + 1)) /
                                 static_cast<std::size_t>(shards);
      while (v < g.num_nodes() &&
             topo->offsets_[static_cast<std::size_t>(v)] < target) {
        ++v;
      }
    }
    topo->shard_begin_.back() = g.num_nodes();
  }
  return topo;
}

bool NetworkTopology::matches(const Graph& g) const {
  if (g.num_nodes() != n_) return false;
  if (static_cast<std::size_t>(2) * static_cast<std::size_t>(g.num_edges()) !=
      num_slots()) {
    return false;
  }
  for (NodeId v = 0; v < n_; ++v) {
    const std::size_t deg = offsets_[static_cast<std::size_t>(v) + 1] -
                            offsets_[static_cast<std::size_t>(v)];
    if (deg != g.neighbors(v).size()) return false;
  }
  return true;
}

namespace {

Graph build_support(const Digraph& dg) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(static_cast<std::size_t>(dg.num_arcs()));
  for (EdgeId a = 0; a < dg.num_arcs(); ++a) {
    const auto [u, v] = dg.arc(a);
    pairs.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return Graph(dg.num_nodes(), std::move(pairs));
}

}  // namespace

std::shared_ptr<const DiTopology> DiTopology::plan(const Digraph& dg,
                                                   int num_threads) {
  auto topo = std::shared_ptr<DiTopology>(new DiTopology());
  topo->support_ = build_support(dg);
  const Graph& support = topo->support_;
  topo->net_topo_ = NetworkTopology::plan(support, num_threads);
  const std::size_t num_arcs = static_cast<std::size_t>(dg.num_arcs());
  // Lane scratch slots are addressed as num_arcs + arc id in uint32 (the
  // pack lists below): guard the doubled arc count the same way the
  // undirected plan guards its 2m slot plane, so planning at the 1M+ scale
  // fails with a message instead of wrapping.
  DEC_REQUIRE(2 * num_arcs <= static_cast<std::size_t>(UINT32_MAX) - 1,
              "arc plane too large for 32-bit scratch slot indices");

  // Incidence index of the support edge {u, v} inside u's adjacency; the
  // adjacency is sorted by neighbor and simple, so binary search is exact.
  auto incidence_of = [&](NodeId u, NodeId v) {
    const auto nb = support.neighbors(u);
    const auto it = std::lower_bound(
        nb.begin(), nb.end(), v,
        [](const Incidence& inc, NodeId t) { return inc.neighbor < t; });
    DEC_CHECK(it != nb.end() && it->neighbor == v,
              "support graph is missing an arc's node pair");
    return static_cast<std::uint32_t>(it - nb.begin());
  };

  // Group arcs by support edge to assign lanes, flat counting-sort style
  // (lane order within a pair is ascending arc id — the invariant both
  // endpoints' packing and extraction rely on).
  const std::size_t num_edges = static_cast<std::size_t>(support.num_edges());
  std::vector<std::uint32_t> lane_count(num_edges, 0);
  std::vector<EdgeId> arc_edge(num_arcs);  // support edge of each arc
  topo->ref_.resize(num_arcs);
  for (EdgeId a = 0; a < dg.num_arcs(); ++a) {
    const auto [u, v] = dg.arc(a);
    ArcRef& ref = topo->ref_[static_cast<std::size_t>(a)];
    ref.tail_inc = incidence_of(u, v);
    ref.head_inc = incidence_of(v, u);
    const EdgeId e =
        support.neighbors(u)[ref.tail_inc].edge;  // found above, no re-search
    arc_edge[static_cast<std::size_t>(a)] = e;
    ref.lane = lane_count[static_cast<std::size_t>(e)]++;
  }
  for (EdgeId a = 0; a < dg.num_arcs(); ++a) {
    topo->ref_[static_cast<std::size_t>(a)].lane_count = lane_count
        [static_cast<std::size_t>(arc_edge[static_cast<std::size_t>(a)])];
  }
  topo->max_lane_count_ = 1;
  for (const std::uint32_t c : lane_count) {
    if (c > topo->max_lane_count_) topo->max_lane_count_ = c;
  }

  // Per-incidence packing lists: for v's incidence of edge e, the scratch
  // slots of v's side of every lane of e, in lane order.
  topo->soff_.assign(static_cast<std::size_t>(support.num_nodes()) + 1, 0);
  for (NodeId v = 0; v < support.num_nodes(); ++v) {
    topo->soff_[static_cast<std::size_t>(v) + 1] =
        topo->soff_[static_cast<std::size_t>(v)] + support.neighbors(v).size();
  }
  topo->pack_off_.assign(topo->soff_.back() + 1, 0);
  for (NodeId v = 0; v < support.num_nodes(); ++v) {
    const auto nb = support.neighbors(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      topo->pack_off_[topo->soff_[static_cast<std::size_t>(v)] + i + 1] =
          lane_count[static_cast<std::size_t>(nb[i].edge)];
    }
  }
  for (std::size_t i = 1; i < topo->pack_off_.size(); ++i) {
    topo->pack_off_[i] += topo->pack_off_[i - 1];
  }
  // Fill each incidence's list in lane order: arcs arrive in ascending arc
  // id, which is exactly lane order within a support edge, so each arc's
  // position in its incidence lists is its own lane index.
  topo->pack_.resize(topo->pack_off_.back());
  for (EdgeId a = 0; a < dg.num_arcs(); ++a) {
    const auto [u, v] = dg.arc(a);
    const ArcRef& ref = topo->ref_[static_cast<std::size_t>(a)];
    const std::size_t iu =
        topo->soff_[static_cast<std::size_t>(u)] + ref.tail_inc;
    const std::size_t iv =
        topo->soff_[static_cast<std::size_t>(v)] + ref.head_inc;
    topo->pack_[topo->pack_off_[iu] + ref.lane] = static_cast<std::uint32_t>(a);
    topo->pack_[topo->pack_off_[iv] + ref.lane] =
        static_cast<std::uint32_t>(num_arcs + static_cast<std::size_t>(a));
  }
  return topo;
}

bool DiTopology::matches(const Digraph& dg) const {
  if (dg.num_nodes() != support_.num_nodes()) return false;
  if (dg.num_arcs() != num_arcs()) return false;
  // Strong O(m) check: every arc's endpoints must sit at the planned support
  // incidences (catches any arc-set mismatch that would mis-deliver).
  for (EdgeId a = 0; a < dg.num_arcs(); ++a) {
    const auto [u, v] = dg.arc(a);
    const ArcRef& ref = ref_[static_cast<std::size_t>(a)];
    const auto nu = support_.neighbors(u);
    const auto nv = support_.neighbors(v);
    if (ref.tail_inc >= nu.size() || nu[ref.tail_inc].neighbor != v) {
      return false;
    }
    if (ref.head_inc >= nv.size() || nv[ref.head_inc].neighbor != u) {
      return false;
    }
  }
  return true;
}

}  // namespace dec
