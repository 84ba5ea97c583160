#include "sim/pool.hpp"

#include <type_traits>

namespace dec {

NetworkPool::NetworkPool(int num_threads)
    : owned_(std::make_unique<SharedNetworkPool>(num_threads)),
      owner_(std::this_thread::get_id()) {
  shared_ = owned_.get();
}

NetworkPool::NetworkPool(SharedNetworkPool& shared)
    : shared_(&shared), owner_(std::this_thread::get_id()) {}

NetworkPool::~NetworkPool() {
  for (const auto& slot : nets_) {
    DEC_DASSERT(!slot.busy, "a network lease outlived its pool");
  }
  for (const auto& slot : dinets_) {
    DEC_DASSERT(!slot.busy, "a dinetwork lease outlived its pool");
  }
  if (owned_ != nullptr) return;  // private arena dies with the view
  // Park this view's run states in the shared arena for other tenants.
  for (auto& slot : nets_) shared_->park(std::move(slot.net));
  for (auto& slot : dinets_) shared_->park(std::move(slot.net));
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
  // Only idle states of the same plane mode are candidates (it is
  // structural; rebind re-declares the width but can never change the plane
  // count). Among those, prefer the exact plan (O(shards) reset instead of
  // rebind).
  std::size_t idle = slots.size();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].busy) continue;
    if (slots[i].net->plane_mode() != plan.mode) continue;
    if (slots[i].net->topology().get() == topo.get()) {
      idle = i;
      break;
    }
    if (idle == slots.size()) idle = i;
  }
  if (idle == slots.size()) {
    // Nothing idle in this view: adopt a parked same-mode run state from
    // the shared arena before constructing fresh.
    std::unique_ptr<Net> adopted;
    if constexpr (std::is_same_v<Net, SyncNetwork>) {
      adopted = shared_->adopt_network(topo.get(), plan.mode);
    } else {
      adopted = shared_->adopt_dinetwork(topo.get(), plan.mode);
    }
    if (adopted == nullptr) {
      slots.push_back({std::make_unique<Net>(g, std::move(topo), ledger,
                                             std::move(component), plan),
                       true});
      return Lease<Net>(this, idle, slots.back().net.get());
    }
    slots.push_back({std::move(adopted), false});
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
