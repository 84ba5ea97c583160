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
