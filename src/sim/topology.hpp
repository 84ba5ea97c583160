// Immutable topology plans for the simulation substrate.
//
// Planning a network — the CSR slot offsets, the peer-slot permutation that
// delivery swaps through, the slot-balanced shard partition, and (for the
// directed adapter) the support graph plus per-arc lane plan — depends only
// on the graph's shape and the shard count, never on anything that happens
// during a run. This file factors that planning out of the networks into two
// immutable, shareable objects:
//
//  * NetworkTopology — the undirected slot plane plan. One plan per (graph
//    shape, shard count); every SyncNetwork run state built on it shares the
//    arrays by shared_ptr instead of re-deriving them.
//
//  * DiTopology — the directed adapter's plan on top: the undirected support
//    graph (one edge per node pair with at least one arc), the support's
//    NetworkTopology, and the lane plan mapping each arc onto its support
//    edge (lane index, lane count, endpoint incidence indices, per-incidence
//    packing lists).
//
// Both are planned once per shape (see NetworkPool in sim/pool.hpp for the
// cache) and hold no per-run state; run state (buffers, epochs, slabs,
// audits) lives in SyncNetwork / DiNetwork, which hold their plan by
// shared_ptr and can be reset or rebound without replanning.
//
// A topology deliberately does NOT keep a pointer to the Graph/Digraph it
// was planned from: it may outlive that object (the pool caches plans by
// shape, and solvers routinely plan on temporary subgraphs). The run state
// carries the current graph reference; matches() checks the pairing.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/graph.hpp"

namespace dec {

class NetworkTopology {
 public:
  /// Plan the slot plane for `g` with `num_threads` shards. Requires
  /// num_threads >= 1 (resolve the 0-means-hardware convention with
  /// resolve_num_threads before calling); counts above n + 1 are clamped to
  /// the round engine's limit.
  static std::shared_ptr<const NetworkTopology> plan(const Graph& g,
                                                     int num_threads = 1);

  NodeId num_nodes() const { return n_; }
  std::size_t num_slots() const { return peer_slot_.size(); }
  int num_shards() const { return num_shards_; }

  /// CSR slot offsets: slot offsets()[v] + i belongs to incidence i of v.
  std::span<const std::size_t> offsets() const { return offsets_; }

  /// Where the message written at slot s lands (the same edge's slot in the
  /// peer's adjacency).
  std::span<const std::uint32_t> peer_slot() const { return peer_slot_; }

  /// Iota map (0, 1, 2, …) of max-degree length. Boxes address slots
  /// through one uniform `buf[base + map[i]]` load so their accessors carry
  /// no parity branch: even rounds pass base = the node's first slot with
  /// this as the map (base + i = the node's CSR slots), odd rounds pass
  /// base = 0 with their peer_slot() slice. One max-degree-sized array
  /// per plan — it stays L1-resident, so the direct map load costs no
  /// memory bandwidth (unlike a per-slot global identity array would).
  std::span<const std::uint32_t> iota_map() const { return iota_map_; }

  /// num_shards() + 1 node boundaries of the slot-balanced shard partition.
  std::span<const NodeId> shard_begin() const { return shard_begin_; }

  /// Cheap structural check that this plan fits `g`: node count, slot count,
  /// and every node's degree. Distinct graphs passing this check and
  /// differing only in edge ids would still mis-deliver, so pairing a
  /// topology with a graph of a different edge list is on the caller (the
  /// pool verifies full edge lists before sharing a cached plan).
  bool matches(const Graph& g) const;

  /// Heap bytes of the plan arrays (offsets, peer permutation, shard
  /// boundaries) — the plan side of the per-node memory budget
  /// (docs/ARCHITECTURE.md "Graph storage & scale").
  std::size_t memory_bytes() const {
    return offsets_.capacity() * sizeof(offsets_[0]) +
           peer_slot_.capacity() * sizeof(peer_slot_[0]) +
           iota_map_.capacity() * sizeof(iota_map_[0]) +
           shard_begin_.capacity() * sizeof(shard_begin_[0]);
  }

 private:
  NetworkTopology() = default;

  NodeId n_ = 0;
  int num_shards_ = 1;
  std::vector<std::size_t> offsets_;      // n + 1
  std::vector<std::uint32_t> peer_slot_;  // 2m
  std::vector<std::uint32_t> iota_map_;   // max degree; 0, 1, 2, …
  std::vector<NodeId> shard_begin_;       // num_shards + 1
};

class DiTopology {
 public:
  /// Where an arc lives on the support slot plane: its lane within the
  /// support edge of its node pair, that edge's total lane count, and the
  /// edge's incidence index inside each endpoint's support adjacency.
  struct ArcRef {
    std::uint32_t lane;
    std::uint32_t lane_count;
    std::uint32_t tail_inc;
    std::uint32_t head_inc;
  };

  /// Plan the support graph and lane plan for `dg`.
  static std::shared_ptr<const DiTopology> plan(const Digraph& dg,
                                                int num_threads = 1);

  NodeId num_nodes() const { return support_.num_nodes(); }
  EdgeId num_arcs() const { return static_cast<EdgeId>(ref_.size()); }

  const Graph& support() const { return support_; }
  const std::shared_ptr<const NetworkTopology>& support_topology() const {
    return net_topo_;
  }

  std::span<const ArcRef> refs() const { return ref_; }

  /// Largest lane count of any support edge (1 when the digraph has no
  /// arcs). Sizes the per-support-slot declared width of an arc plan:
  /// a framed multi-lane message carries max_lane_count * (1 + w) fields for
  /// per-arc width w.
  std::uint32_t max_lane_count() const { return max_lane_count_; }

  /// Per-incidence packing lists: incidence I = soff()[v] + i owns scratch
  /// slots pack()[pack_off()[I] .. pack_off()[I+1]), in lane order. A
  /// forward sub-channel's slot is its arc id, a backward one's is
  /// num_arcs + arc id.
  std::span<const std::size_t> soff() const { return soff_; }
  std::span<const std::size_t> pack_off() const { return pack_off_; }
  std::span<const std::uint32_t> pack() const { return pack_; }

  /// Cheap structural check that this plan fits `dg` (node/arc counts and
  /// per-node degrees; see NetworkTopology::matches for the caveat).
  bool matches(const Digraph& dg) const;

 private:
  DiTopology() = default;

  Graph support_;
  std::shared_ptr<const NetworkTopology> net_topo_;
  std::vector<ArcRef> ref_;        // per arc
  std::uint32_t max_lane_count_ = 1;
  std::vector<std::size_t> soff_;  // n + 1 support incidence offsets
  std::vector<std::size_t> pack_off_;
  std::vector<std::uint32_t> pack_;
};

}  // namespace dec
