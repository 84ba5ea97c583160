// NetworkPool: a thread-confined view of a shared cache of topology plans,
// owning the network run states it builds.
//
// Solvers that build many networks — one per phase game, one per recursion
// level, one per pipeline stage — pay planning (CSR offsets, peer
// permutation, shard partition, lane plan) and run-state allocation (message
// plane, slabs) for every single one. The arena amortizes both under one
// rule: plans are shared, run states are owned by the view that built them.
//
//  * Topology cache (shared, thread-safe). topology() forwards to the
//    SharedNetworkPool's (sim/shared_pool.hpp) fingerprint-sharded cache:
//    repeat shapes — across phases of one solver or across concurrent
//    tenants — plan exactly once and share the plan by shared_ptr.
//    Fingerprint hits are verified against the full stored edge list, so
//    bit-identity is unconditional.
//
//  * Run states (view-owned, thread-confined). network()/dinetwork() lease
//    a SyncNetwork/DiNetwork whose buffers, slabs and scratch are reused
//    across leases: a returning shape degenerates to an
//    O(shards) epoch reset, a new shape to an in-place rebind. A view
//    builds a run state only when none of its own is idle, keeps it for its
//    lifetime (no per-lease locking), and frees it on destruction.
//
// A leased network starts indistinguishable from a freshly constructed one
// (epoch-gated slots, cleared rounds/audit/slabs), so pooled runs are
// bit-identical to fresh-network runs — outputs, audited rounds, and ledger
// breakdowns; tests/test_network_pool.cpp pins this for all solvers.
//
// Thread-safety and lifetime rules (debug-asserted, see DEC_DASSERT):
//  * A NetworkPool view is confined to the thread that constructed it:
//    network()/dinetwork() must be called there, and every lease must be
//    released on that same thread. Concurrent tenants each hold their own
//    view over one SharedNetworkPool (the SolverService does exactly this,
//    one view per worker).
//  * A lease must not outlive its pool — the pool's destructor aborts if a
//    lease is still outstanding. The graph passed to network()/dinetwork()
//    must outlive the lease (the run state references it); the pool itself
//    may outlive every graph it has seen (topologies hold no graph
//    pointers).
//  * Executor (view-owned). Each view owns one fork-join executor
//    (util/thread_pool.hpp) with the pool's shard count: shards − 1 helper
//    threads, started on the first sharded run, so a 1-shard view starts
//    none. Every network the view builds borrows it for its sharded rounds,
//    and solve stages outside rounds (line-graph construction, the coloring
//    checks) run their chunks on it through executor(). Only the view's
//    thread runs it, one loop at a time; the helpers are invisible to the
//    confinement rules above.
//
// NetworkPool(int) keeps the historical single-threaded behavior: the view
// privately owns its SharedNetworkPool, so existing solver signatures (an
// optional NetworkPool*) work unchanged.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/dinetwork.hpp"
#include "sim/network.hpp"
#include "sim/shared_pool.hpp"
#include "sim/topology.hpp"

namespace dec {

class NetworkPool {
 public:
  /// Stand-alone view: privately owns a SharedNetworkPool. All leased
  /// networks run with `num_threads` shards (0 picks hardware concurrency,
  /// see resolve_num_threads).
  explicit NetworkPool(int num_threads = 1);

  /// Tenant view over a shared arena: topology plans are shared with every
  /// other view of `shared`, run states are this view's own; leases and the
  /// view itself stay confined to the constructing thread. The view leases
  /// networks with the shared pool's shard count and must not outlive
  /// `shared`.
  explicit NetworkPool(SharedNetworkPool& shared);

  ~NetworkPool();

  NetworkPool(const NetworkPool&) = delete;
  NetworkPool& operator=(const NetworkPool&) = delete;

  int num_threads() const { return shared_->num_threads(); }

  /// The view's fork-join executor (num_threads() threads, the caller
  /// included). Confined to the view's thread like the leases.
  ThreadPool& executor() { return executor_; }

  /// Plan-or-fetch the topology for a graph shape (thread-safe, forwarded
  /// to the shared arena).
  std::shared_ptr<const NetworkTopology> topology(const Graph& g) {
    return shared_->topology(g);
  }
  std::shared_ptr<const DiTopology> topology(const Digraph& dg) {
    return shared_->topology(dg);
  }

  /// RAII lease of a pooled run state; releases back to the view on
  /// destruction. Move-only. Must be released on the thread that acquired
  /// it (debug-asserted) — move a view, not a lease, across threads.
  template <class Net>
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& o) noexcept { *this = std::move(o); }
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        release();
        pool_ = o.pool_;
        index_ = o.index_;
        net_ = o.net_;
        owner_ = o.owner_;
        o.pool_ = nullptr;
        o.net_ = nullptr;
      }
      return *this;
    }
    ~Lease() { release(); }

    Net& operator*() const { return *net_; }
    Net* operator->() const { return net_; }
    explicit operator bool() const { return net_ != nullptr; }

   private:
    friend class NetworkPool;
    Lease(NetworkPool* pool, std::size_t index, Net* net)
        : pool_(pool),
          index_(index),
          net_(net),
          owner_(std::this_thread::get_id()) {}
    void release() {
      if (pool_ != nullptr && net_ != nullptr) {
        DEC_DASSERT(std::this_thread::get_id() == owner_,
                    "a pool lease must be released on the thread that "
                    "acquired it");
        pool_->release_slot(net_, index_);
      }
      pool_ = nullptr;
      net_ = nullptr;
    }

    NetworkPool* pool_ = nullptr;
    std::size_t index_ = 0;
    Net* net_ = nullptr;
    std::thread::id owner_;
  };
  using NetworkLease = Lease<SyncNetwork>;
  using DiNetworkLease = Lease<DiNetwork>;

  /// Lease a run state bound to `g` (topology cached-or-planned), reset and
  /// charging rounds to `ledger` under `component`. `plan` is the lease's
  /// slot plan (per-arc for dinetwork, see DiNetwork); its declared width is
  /// re-bound per lease, so any idle run state of the view can serve it.
  NetworkLease network(const Graph& g, RoundLedger* ledger = nullptr,
                       std::string component = "network", SlotPlan plan = {});
  DiNetworkLease dinetwork(const Digraph& dg, RoundLedger* ledger = nullptr,
                           std::string component = "dinetwork",
                           SlotPlan plan = {.max_fields =
                                                DiNetwork::kMaxArcFields});

  // Introspection (tests and stats). Topology counts are the shared
  // arena's (global across tenant views); run_states() counts this view's.
  std::int64_t topology_hits() const { return shared_->topology_hits(); }
  std::int64_t topology_misses() const { return shared_->topology_misses(); }
  std::size_t cached_topologies() const {
    return shared_->cached_topologies();
  }
  std::size_t run_states() const { return nets_.size() + dinets_.size(); }

 private:
  template <class Net>
  struct Slot {
    std::unique_ptr<Net> net;
    bool busy = false;
  };

  /// Shared lease selection: prefer an idle run state on this exact plan
  /// (O(shards) reset), else any idle one (in-place rebind), else build one.
  template <class Net, class G, class Topo>
  Lease<Net> acquire(std::vector<Slot<Net>>& slots, const G& g,
                     std::shared_ptr<const Topo> topo, RoundLedger* ledger,
                     std::string component, SlotPlan plan);

  // Releasing clears any installed cancel token: the token belongs to the
  // job that leased the state and may die with it, while the run state
  // lives on in the arena.
  void release_slot(SyncNetwork* net, std::size_t index) {
    net->set_cancel(nullptr);
    nets_[index].busy = false;
  }
  void release_slot(DiNetwork* net, std::size_t index) {
    net->set_cancel(nullptr);
    dinets_[index].busy = false;
  }

  std::unique_ptr<SharedNetworkPool> owned_;  // set by NetworkPool(int)
  SharedNetworkPool* shared_;
  std::thread::id owner_;  // constructing thread
  // Declared before the run states that borrow it, so it outlives them.
  ThreadPool executor_;
  std::vector<Slot<SyncNetwork>> nets_;
  std::vector<Slot<DiNetwork>> dinets_;
};

/// Lease-or-construct: solvers take an optional NetworkPool* and fall back
/// to a locally owned network when none is given (identical behavior either
/// way — pooling is a pure reuse optimization). num_threads follows the
/// library-wide 0-means-hardware convention (resolved here, so solver entry
/// points need not). A supplied pool must carry the same resolved shard
/// count the solver was asked for: leased networks run with the pool's
/// count, and silently overriding an explicit num_threads would break the
/// solvers' documented engine contract, so a mismatch is an error instead.
class ScopedNetwork {
 public:
  /// `cancel` (optional) is installed on the scoped network for the
  /// lifetime of the scope — the round barrier the solvers' cooperative
  /// cancellation hangs off (SyncNetwork::set_cancel). Lease release clears
  /// it, so a pooled run state never outlives the token it watched.
  ScopedNetwork(NetworkPool* pool, const Graph& g, RoundLedger* ledger,
                std::string component, int num_threads,
                CancelToken* cancel = nullptr, SlotPlan plan = {}) {
    num_threads = resolve_num_threads(num_threads);
    if (pool != nullptr) {
      DEC_REQUIRE(pool->num_threads() == num_threads,
                  "pool shard count must match the solver's num_threads");
      lease_ = pool->network(g, ledger, std::move(component), plan);
    } else {
      local_.emplace(g, ledger, std::move(component), num_threads, plan);
    }
    (*this)->set_cancel(cancel);
  }
  SyncNetwork& operator*() { return lease_ ? *lease_ : *local_; }
  SyncNetwork* operator->() { return &**this; }

 private:
  NetworkPool::NetworkLease lease_;
  std::optional<SyncNetwork> local_;
};

class ScopedDiNetwork {
 public:
  ScopedDiNetwork(NetworkPool* pool, const Digraph& dg, RoundLedger* ledger,
                  std::string component, int num_threads,
                  CancelToken* cancel = nullptr,
                  SlotPlan arc_plan = {.max_fields =
                                           DiNetwork::kMaxArcFields}) {
    num_threads = resolve_num_threads(num_threads);
    if (pool != nullptr) {
      DEC_REQUIRE(pool->num_threads() == num_threads,
                  "pool shard count must match the solver's num_threads");
      lease_ = pool->dinetwork(dg, ledger, std::move(component), arc_plan);
    } else {
      local_.emplace(dg, ledger, std::move(component), num_threads, arc_plan);
    }
    (*this)->set_cancel(cancel);
  }
  DiNetwork& operator*() { return lease_ ? *lease_ : *local_; }
  DiNetwork* operator->() { return &**this; }

 private:
  NetworkPool::DiNetworkLease lease_;
  std::optional<DiNetwork> local_;
};

}  // namespace dec
