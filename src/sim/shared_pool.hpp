// SharedNetworkPool: the concurrent, multi-tenant arena behind NetworkPool.
//
// One process serving many solver jobs wants exactly one place where
// topology plans and run states live, so that tenants submitting the same
// graph shape plan once and recycle each other's buffers. This class is that
// place. It is safe to call from any number of threads concurrently:
//
//  * Topology cache, sharded by shape fingerprint. Cached plans are spread
//    over kNumShards shards (shard = fingerprint mod kNumShards); each shard
//    is an append-only, fixed-capacity entry array with an atomically
//    published count. The repeat-shape fast path — the common case once a
//    shape is warm — acquire-loads the count and scans the published
//    entries without taking any lock (entries are never mutated after the
//    release-store that publishes them, so the scan is race-free by
//    construction — deliberately NOT std::atomic<shared_ptr>, whose
//    libstdc++ implementation is not TSan-clean). Misses take the shard's
//    mutex, re-check (so concurrent tenants submitting the same new shape
//    plan exactly once; the losers of the race count as hits), plan, and
//    append. A full shard freezes: later new shapes in it are planned but
//    not cached (hot shapes arrive early in a service's life, so the frozen
//    set is the working set; generation-based reclamation is the upgrade
//    path if workloads ever churn shapes). As in the single-threaded pool,
//    a fingerprint hit is verified against the full stored edge list before
//    the plan is shared, so bit-identity is unconditional.
//
//  * Run-state free lists, guarded per shard. Released SyncNetwork /
//    DiNetwork run states park in the shard of the plan they were last bound
//    to, under that shard's state mutex. A tenant acquiring a warm shape
//    first looks in the shape's home shard — where it tends to find a state
//    already bound to the exact plan (O(shards) reset instead of a rebind) —
//    then steals from the other shards before constructing fresh.
//
// Leases never come from this class directly: tenants go through a
// NetworkPool (sim/pool.hpp), which is a thin thread-confined view over one
// SharedNetworkPool. The view keeps the run states it has acquired for its
// own lifetime (leases stay on the view's thread; no per-lease lock
// traffic) and parks them back here when it is destroyed. Thread safety is
// therefore split: everything on this class is thread-safe; everything on a
// view is confined to the thread that constructed it (debug-asserted there).
//
// All leased/adopted run states run with this pool's shard count
// (num_threads), like the single-threaded pool before it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "sim/dinetwork.hpp"
#include "sim/network.hpp"
#include "sim/topology.hpp"

namespace dec {

class SharedNetworkPool {
 public:
  /// All adopted networks run with `num_threads` shards (0 picks hardware
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

  // ---- run-state arena (NetworkPool views call these; thread-safe) ----

  /// Pop a parked run state, preferring one last bound to `plan_key`'s
  /// shard (and within it, to `plan_key` itself); null if none is parked
  /// anywhere. Only run states whose plane mode equals `mode` are
  /// candidates — a single-plane state is NEVER adopted for a double-plane
  /// lease, or vice versa (the caller reconstructs instead); the mode is
  /// fixed at construction and rebind cannot change it. The caller
  /// rebinds/resets before use.
  std::unique_ptr<SyncNetwork> adopt_network(const NetworkTopology* plan_key,
                                             PlaneMode mode);
  std::unique_ptr<DiNetwork> adopt_dinetwork(const DiTopology* plan_key,
                                             PlaneMode mode);

  /// Park a run state for other tenants, in its bound plan's shard.
  void park(std::unique_ptr<SyncNetwork> net);
  void park(std::unique_ptr<DiNetwork> net);

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
  /// Run states currently parked (not counting those held by live views).
  std::size_t parked_run_states() const {
    return static_cast<std::size_t>(parked_.load(std::memory_order_relaxed));
  }

 private:
  /// Shape-fingerprint shards of the topology cache and run-state lists.
  static constexpr std::size_t kNumShards = 16;
  /// Per-shard cap on cached plans (per-phase game shapes rarely repeat,
  /// so an unbounded cache would grow by one plan per phase; a full shard
  /// freezes — it keeps serving its entries, later new shapes go uncached).
  static constexpr std::size_t kMaxCachedPerShard = 8;
  /// Per-shard cap on parked run states of each kind; beyond it a parked
  /// state is simply dropped (its memory returns to the allocator).
  static constexpr std::size_t kMaxParkedPerShard = 8;

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

  struct StateShard {
    std::mutex mu;
    std::vector<std::unique_ptr<SyncNetwork>> nets;
    std::vector<std::unique_ptr<DiNetwork>> dinets;
  };

  static std::size_t shard_of_key(const void* plan_key) {
    // Mix the pointer so allocation alignment does not bias the shard.
    auto p = reinterpret_cast<std::uintptr_t>(plan_key);
    return static_cast<std::size_t>((p >> 4) * 0x9e3779b97f4a7c15ull >> 32) %
           kNumShards;
  }

  template <class Topo, class ShapeView, class PlanFn>
  std::shared_ptr<const Topo> find_or_plan(TopoShard<Topo>* shards, NodeId n,
                                           const ShapeView& shape,
                                           PlanFn&& plan);

  template <class Net, class Topo>
  std::unique_ptr<Net> adopt(std::vector<std::unique_ptr<Net>> StateShard::*
                                 list,
                             const Topo* plan_key,
                             PlaneMode mode);
  template <class Net>
  void park_in(std::vector<std::unique_ptr<Net>> StateShard::* list,
               std::unique_ptr<Net> net, const void* plan_key);

  int num_threads_;
  TopoShard<NetworkTopology> net_shards_[kNumShards];
  TopoShard<DiTopology> di_shards_[kNumShards];
  StateShard state_shards_[kNumShards];
  std::atomic<std::int64_t> hits_{0};    // see topology_counters()
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> parked_{0};
};

}  // namespace dec
