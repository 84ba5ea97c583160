#include "sim/pool.hpp"

namespace dec {

NetworkPool::NetworkPool(int num_threads)
    : owned_(std::make_unique<SharedNetworkPool>(num_threads)),
      shared_(owned_.get()),
      owner_(std::this_thread::get_id()),
      executor_(shared_->num_threads()) {}

NetworkPool::NetworkPool(SharedNetworkPool& shared)
    : shared_(&shared),
      owner_(std::this_thread::get_id()),
      executor_(shared_->num_threads()) {}

NetworkPool::~NetworkPool() {
  for (const auto& slot : nets_) {
    DEC_DASSERT(!slot.busy, "a network lease outlived its pool");
  }
  for (const auto& slot : dinets_) {
    DEC_DASSERT(!slot.busy, "a dinetwork lease outlived its pool");
  }
}

template <class Net, class G, class Topo>
NetworkPool::Lease<Net> NetworkPool::acquire(std::vector<Slot<Net>>& slots,
                                             const G& g,
                                             std::shared_ptr<const Topo> topo,
                                             RoundLedger* ledger,
                                             std::string component,
                                             SlotPlan plan) {
  DEC_DASSERT(std::this_thread::get_id() == owner_,
              "a NetworkPool view is confined to its constructing thread");
  // Prefer an idle state on the exact plan (O(shards) reset instead of
  // rebind).
  std::size_t idle = slots.size();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].busy) continue;
    if (slots[i].net->topology().get() == topo.get()) {
      idle = i;
      break;
    }
    if (idle == slots.size()) idle = i;
  }
  if (idle == slots.size()) {
    // Nothing idle in this view: build a run state of its own.
    slots.push_back({std::make_unique<Net>(g, std::move(topo), ledger,
                                           std::move(component), plan,
                                           &executor_),
                     true});
    return Lease<Net>(this, idle, slots.back().net.get());
  }
  slots[idle].net->rebind(g, std::move(topo), ledger, std::move(component),
                          plan);
  slots[idle].busy = true;
  return Lease<Net>(this, idle, slots[idle].net.get());
}

NetworkPool::NetworkLease NetworkPool::network(const Graph& g,
                                               RoundLedger* ledger,
                                               std::string component,
                                               SlotPlan plan) {
  return acquire(nets_, g, topology(g), ledger, std::move(component), plan);
}

NetworkPool::DiNetworkLease NetworkPool::dinetwork(const Digraph& dg,
                                                   RoundLedger* ledger,
                                                   std::string component,
                                                   SlotPlan plan) {
  return acquire(dinets_, dg, topology(dg), ledger, std::move(component),
                 plan);
}

}  // namespace dec
