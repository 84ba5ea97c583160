#include "sim/shared_pool.hpp"

#include "sim/thread_pool.hpp"

namespace dec {

namespace {

/// Multiplicative hash over the shape, one step per endpoint pair (node
/// count first), finished with a 64-bit avalanche so the shard index, taken
/// from the low bits, depends on every pair. A hit is verified against the
/// stored edge list, so the hash only has to be selective, not
/// collision-free.
template <class ShapeView>
std::uint64_t shape_fingerprint(NodeId n, const ShapeView& pairs) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  std::uint64_t h = static_cast<std::uint64_t>(static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [a, b] = pairs[i];
    h = (h ^ ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(a))
               << 32) |
              static_cast<std::uint64_t>(static_cast<std::uint32_t>(b)))) *
        kMul;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

/// Shape views over the two graph kinds: pair access without materializing
/// a list (the Digraph stores arcs CSR-side, not as one vector).
struct EdgeListView {
  const std::vector<std::pair<NodeId, NodeId>>& edges;
  std::size_t size() const { return edges.size(); }
  std::pair<NodeId, NodeId> operator[](std::size_t i) const {
    return edges[i];
  }
};

struct ArcListView {
  const Digraph& dg;
  std::size_t size() const {
    return static_cast<std::size_t>(dg.num_arcs());
  }
  std::pair<NodeId, NodeId> operator[](std::size_t i) const {
    return dg.arc(static_cast<EdgeId>(i));
  }
};

template <class ShapeView>
bool shape_equals(const std::vector<std::pair<NodeId, NodeId>>& stored,
                  const ShapeView& shape) {
  if (stored.size() != shape.size()) return false;
  for (std::size_t i = 0; i < stored.size(); ++i) {
    if (stored[i] != shape[i]) return false;
  }
  return true;
}

template <class ShapeView>
std::vector<std::pair<NodeId, NodeId>> materialize(const ShapeView& shape) {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(shape.size());
  for (std::size_t i = 0; i < shape.size(); ++i) out.push_back(shape[i]);
  return out;
}

}  // namespace

SharedNetworkPool::SharedNetworkPool(int num_threads)
    : num_threads_(resolve_num_threads(num_threads)) {}

template <class Topo, class ShapeView, class PlanFn>
std::shared_ptr<const Topo> SharedNetworkPool::find_or_plan(
    TopoShard<Topo>* shards, NodeId n, const ShapeView& shape, PlanFn&& plan) {
  const std::uint64_t fp = shape_fingerprint(n, shape);
  TopoShard<Topo>& sh = shards[static_cast<std::size_t>(fp) % kNumShards];

  // Scan the published prefix entries[lo, hi). Published entries are
  // immutable, so this is race-free without any lock.
  const auto scan = [&](std::uint32_t lo,
                        std::uint32_t hi) -> std::shared_ptr<const Topo> {
    for (std::uint32_t i = lo; i < hi; ++i) {
      const TopoEntry<Topo>& e = sh.entries[i];
      if (e.fingerprint == fp && e.n == n && shape_equals(e.shape, shape)) {
        return e.topo;
      }
    }
    return nullptr;
  };

  // Lock-free fast path over the entries published so far.
  const std::uint32_t seen = sh.count.load(std::memory_order_acquire);
  if (auto topo = scan(0, seen)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return topo;
  }

  std::lock_guard<std::mutex> lock(sh.mu);
  // Re-check what was appended while we waited for the mutex: a concurrent
  // tenant may have planned this shape, and planning twice would break the
  // exactly-once contract (and waste the work).
  const std::uint32_t now = sh.count.load(std::memory_order_acquire);
  if (auto topo = scan(seen, now)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return topo;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const Topo> topo = plan();
  if (now < kMaxCachedPerShard) {
    sh.entries[now] = {fp, materialize(shape), n, topo};
    sh.count.store(now + 1, std::memory_order_release);
  }
  // else: shard frozen — serve the plan uncached.
  return topo;
}

std::shared_ptr<const NetworkTopology> SharedNetworkPool::topology(
    const Graph& g) {
  return find_or_plan(net_shards_, g.num_nodes(), EdgeListView{g.edge_list()},
                      [&] { return NetworkTopology::plan(g, num_threads_); });
}

std::shared_ptr<const DiTopology> SharedNetworkPool::topology(
    const Digraph& dg) {
  return find_or_plan(di_shards_, dg.num_nodes(), ArcListView{dg},
                      [&] { return DiTopology::plan(dg, num_threads_); });
}

template <class Net, class Topo>
std::unique_ptr<Net> SharedNetworkPool::adopt(
    std::vector<std::unique_ptr<Net>> StateShard::* list,
    const Topo* plan_key, PlaneMode mode) {
  const std::size_t home = shard_of_key(plan_key);
  for (std::size_t step = 0; step < kNumShards; ++step) {
    StateShard& sh = state_shards_[(home + step) % kNumShards];
    std::lock_guard<std::mutex> lock(sh.mu);
    auto& parked = sh.*list;
    if (parked.empty()) continue;
    // The plane mode is structural: only a state matching it is a
    // candidate (rebind can re-declare the width but never change the plane
    // count). Newest-first keeps the historical LIFO behavior among
    // matches.
    std::size_t pick = parked.size();
    for (std::size_t i = parked.size(); i-- > 0;) {
      if (parked[i]->plane_mode() == mode) {
        pick = i;
        break;
      }
    }
    if (pick == parked.size()) continue;  // no matching state here
    // In the home shard, prefer a state bound to this exact plan so the
    // caller's rebind degenerates to an O(shards) reset.
    if (step == 0) {
      for (std::size_t i = 0; i < parked.size(); ++i) {
        if (parked[i]->topology().get() == plan_key &&
            parked[i]->plane_mode() == mode) {
          pick = i;
          break;
        }
      }
    }
    std::unique_ptr<Net> net = std::move(parked[pick]);
    parked.erase(parked.begin() + static_cast<std::ptrdiff_t>(pick));
    parked_.fetch_sub(1, std::memory_order_relaxed);
    return net;
  }
  return nullptr;
}

std::unique_ptr<SyncNetwork> SharedNetworkPool::adopt_network(
    const NetworkTopology* plan_key, PlaneMode mode) {
  return adopt(&StateShard::nets, plan_key, mode);
}

std::unique_ptr<DiNetwork> SharedNetworkPool::adopt_dinetwork(
    const DiTopology* plan_key, PlaneMode mode) {
  return adopt(&StateShard::dinets, plan_key, mode);
}

template <class Net>
void SharedNetworkPool::park_in(
    std::vector<std::unique_ptr<Net>> StateShard::* list,
    std::unique_ptr<Net> net, const void* plan_key) {
  StateShard& sh = state_shards_[shard_of_key(plan_key)];
  std::lock_guard<std::mutex> lock(sh.mu);
  auto& parked = sh.*list;
  if (parked.size() >= kMaxParkedPerShard) return;  // drop: arena is full
  parked.push_back(std::move(net));
  parked_.fetch_add(1, std::memory_order_relaxed);
}

void SharedNetworkPool::park(std::unique_ptr<SyncNetwork> net) {
  const void* key = net->topology().get();
  park_in(&StateShard::nets, std::move(net), key);
}

void SharedNetworkPool::park(std::unique_ptr<DiNetwork> net) {
  const void* key = net->topology().get();
  park_in(&StateShard::dinets, std::move(net), key);
}

std::size_t SharedNetworkPool::cached_topologies() const {
  std::size_t total = 0;
  for (const auto& sh : net_shards_) {
    total += sh.count.load(std::memory_order_acquire);
  }
  for (const auto& sh : di_shards_) {
    total += sh.count.load(std::memory_order_acquire);
  }
  return total;
}

}  // namespace dec
