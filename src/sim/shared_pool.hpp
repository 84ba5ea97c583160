// SharedNetworkPool: the concurrent topology cache behind NetworkPool.
//
// One process serving many solver jobs wants exactly one place where
// topology plans live, so that tenants submitting the same graph shape plan
// once. This class is that place, and it is only that: plans are shared,
// run states are owned by the view that built them. It is safe to call from
// any number of threads concurrently.
//
// Cached plans are spread over kNumShards shards (shard = fingerprint mod
// kNumShards); each shard is an append-only, fixed-capacity entry array
// with an atomically published count. The repeat-shape fast path — the
// common case once a shape is warm — acquire-loads the count and scans the
// published entries without taking any lock (entries are never mutated
// after the release-store that publishes them, so the scan is race-free by
// construction — deliberately NOT std::atomic<shared_ptr>, whose libstdc++
// implementation is not TSan-clean). Misses take the shard's mutex,
// re-check (so concurrent tenants submitting the same new shape plan
// exactly once; the losers of the race count as hits), plan, and append. A
// full shard freezes: later new shapes in it are planned but not cached
// (hot shapes arrive early in a service's life, so the frozen set is the
// working set; generation-based reclamation is the upgrade path if
// workloads ever churn shapes). As in the single-threaded pool, a
// fingerprint hit is verified against the full stored edge list before the
// plan is shared, so bit-identity is unconditional.
//
// Leases never come from this class: tenants go through a NetworkPool
// (sim/pool.hpp), a thin thread-confined view over one SharedNetworkPool.
// The view builds and keeps its own run states for its lifetime (leases
// stay on the view's thread; no per-lease lock traffic), and they die with
// it. Thread safety is therefore split: everything on this class is
// thread-safe; everything on a view is confined to the thread that
// constructed it (debug-asserted there).
//
// Plans are built with this pool's shard count (num_threads), so every
// view's run states run with it too.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "sim/topology.hpp"

namespace dec {

class SharedNetworkPool {
 public:
  /// Plans are built for `num_threads` shards (0 picks hardware
  /// concurrency, see resolve_num_threads).
  explicit SharedNetworkPool(int num_threads = 1);

  SharedNetworkPool(const SharedNetworkPool&) = delete;
  SharedNetworkPool& operator=(const SharedNetworkPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Plan-or-fetch the topology for a graph shape. Thread-safe; repeat
  /// shapes take no lock. Concurrent first requests for one shape plan it
  /// exactly once (the shard mutex serializes the planners; the losers
  /// observe the winner's entry and count as hits).
  std::shared_ptr<const NetworkTopology> topology(const Graph& g);
  std::shared_ptr<const DiTopology> topology(const Digraph& dg);

  // ---- stats (atomic; cache hit rate and plans shared for the service) --

  /// The topology-cache counters: one relaxed load each. Under concurrent
  /// lookups the pair is not one instant's snapshot, but a rate computed
  /// from it agrees with the two numbers read, and each counter is exact
  /// once the lookups it counts have returned. Each is 64 bits: at a
  /// sustained 10^9 lookups/s (over 10^4 times the ~7·10^4/s that
  /// bench_service_load reaches), reaching 2^63 ≈ 9.2·10^18 takes
  /// 9.2·10^9 s — about 290 years.
  struct TopologyCounters {
    std::int64_t hits = 0;    // plans shared (cache hits)
    std::int64_t misses = 0;  // plans built (cache misses)
  };
  TopologyCounters topology_counters() const {
    return {hits_.load(std::memory_order_relaxed),
            misses_.load(std::memory_order_relaxed)};
  }
  std::int64_t topology_hits() const { return topology_counters().hits; }
  std::int64_t topology_misses() const { return topology_counters().misses; }
  std::size_t cached_topologies() const;

 private:
  /// Shape-fingerprint shards of the topology cache.
  static constexpr std::size_t kNumShards = 16;
  /// Per-shard cap on cached plans (per-phase game shapes rarely repeat,
  /// so an unbounded cache would grow by one plan per phase; a full shard
  /// freezes — it keeps serving its entries, later new shapes go uncached).
  static constexpr std::size_t kMaxCachedPerShard = 8;

  template <class Topo>
  struct TopoEntry {
    std::uint64_t fingerprint;
    std::vector<std::pair<NodeId, NodeId>> shape;
    NodeId n;
    std::shared_ptr<const Topo> topo;
  };

  /// Append-only entry array + atomically published count. Readers
  /// acquire-load `count` and scan entries[0, count) lock-free; writers
  /// (under `mu`) construct entries[count] fully, then release-store the
  /// incremented count. Published entries are immutable.
  template <class Topo>
  struct TopoShard {
    std::mutex mu;  // serializes planners (appends)
    std::atomic<std::uint32_t> count{0};
    std::array<TopoEntry<Topo>, kMaxCachedPerShard> entries;
  };

  template <class Topo, class ShapeView, class PlanFn>
  std::shared_ptr<const Topo> find_or_plan(TopoShard<Topo>* shards, NodeId n,
                                           const ShapeView& shape,
                                           PlanFn&& plan);

  int num_threads_;
  TopoShard<NetworkTopology> net_shards_[kNumShards];
  TopoShard<DiTopology> di_shards_[kNumShards];
  // See topology_counters(). Every lookup bumps one of them, so they get a
  // cache line of their own (and so does whatever follows the pool in an
  // enclosing object, such as SolverService's queue mutex).
  alignas(64) std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
};

}  // namespace dec
