#include "sim/dinetwork.hpp"

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

namespace dec {

namespace {

std::shared_ptr<const DiTopology> require_topo(
    std::shared_ptr<const DiTopology> topo) {
  DEC_REQUIRE(topo != nullptr, "null topology");
  return topo;
}

// Derive the support network's per-slot plan from a per-arc plan: an
// unframed single-lane slot carries at most w fields; a framed multi-lane
// slot carries a length prefix plus payload per lane. Wide framed payloads
// ride the slot's saturated-count spill, so no lane multiplicity is too
// many.
SlotPlan support_plan(const DiTopology& topo, SlotPlan arc_plan) {
  const int w = arc_plan.max_fields;
  DEC_REQUIRE(w >= 1, "arc plan requires declared max_fields >= 1");
  const std::int64_t lanes = topo.max_lane_count();
  const std::int64_t support_w = lanes == 1 ? w : lanes * (1 + w);
  DEC_REQUIRE(support_w <= std::numeric_limits<int>::max(),
              "framed support width overflows the declared-width range — "
              "declare a narrower arc plan");
  return {.max_fields = static_cast<int>(support_w)};
}

}  // namespace

DiNetwork::DiNetwork(const Digraph& dg, RoundLedger* ledger,
                     std::string component, int num_threads, SlotPlan arc_plan)
    : DiNetwork(dg, DiTopology::plan(dg, num_threads), ledger,
                std::move(component), arc_plan) {}

DiNetwork::DiNetwork(const Digraph& dg, std::shared_ptr<const DiTopology> topo,
                     RoundLedger* ledger, std::string component,
                     SlotPlan arc_plan, ThreadPool* executor)
    : dg_(&dg),
      topo_(require_topo(std::move(topo))),
      net_(topo_->support(), topo_->support_topology(), ledger,
           std::move(component), support_plan(*topo_, arc_plan), executor),
      arc_declared_(arc_plan.max_fields) {
  DEC_REQUIRE(topo_->matches(dg), "topology does not fit the digraph");
  bind_plan();
}

void DiNetwork::bind_plan() {
  ref_ = topo_->refs().data();
  soff_ = topo_->soff().data();
  pack_off_ = topo_->pack_off().data();
  pack_list_ = topo_->pack().data();
  const std::size_t channels =
      2 * static_cast<std::size_t>(topo_->num_arcs());
  // Stale scratch never leaks: clear_scratch runs per node before its step
  // reads or packs anything, so plain resize (capacity-reusing) suffices.
  scratch_len_.resize(channels);
  scratch_fields_.resize(channels * kMaxArcFields);
}

void DiNetwork::reset() { net_.reset(); }

void DiNetwork::rebind(const Digraph& dg,
                       std::shared_ptr<const DiTopology> topo,
                       RoundLedger* ledger, std::string component,
                       SlotPlan arc_plan) {
  DEC_REQUIRE(topo != nullptr, "null topology");
  DEC_REQUIRE(topo->matches(dg), "topology does not fit the digraph");
  dg_ = &dg;
  arc_declared_ = arc_plan.max_fields;
  const SlotPlan sp = support_plan(*topo, arc_plan);
  // On the bound plan the support rebind takes its same-topology fast path
  // (the declared width may still differ between leases) and resets.
  const bool same_plan = topo.get() == topo_.get();
  topo_ = std::move(topo);
  net_.rebind(topo_->support(), topo_->support_topology(), ledger,
              std::move(component), sp);
  if (!same_plan) bind_plan();
}

void DiNetwork::clear_scratch(NodeId v) {
  const std::size_t lo = soff_[static_cast<std::size_t>(v)];
  const std::size_t hi = soff_[static_cast<std::size_t>(v) + 1];
  for (std::size_t i = lo; i < hi; ++i) {
    for (std::size_t k = pack_off_[i]; k < pack_off_[i + 1]; ++k) {
      scratch_len_[pack_list_[k]] = 0;
    }
  }
}

void DiNetwork::send(std::size_t slot,
                     std::initializer_list<std::int64_t> fields) {
  DEC_REQUIRE(fields.size() <= kMaxArcFields,
              "arc payload wider than the adapter's per-lane capacity");
  if (fields.size() > static_cast<std::size_t>(arc_declared_)) {
    const std::string msg =
        "arc payload wider than the protocol's declared arc plan: component "
        "'" + net_.component() + "' round " +
        std::to_string(net_.rounds_executed()) + ", arc channel " +
        std::to_string(slot) + " sent " + std::to_string(fields.size()) +
        " fields but the lease declared max_fields=" +
        std::to_string(arc_declared_) +
        " — raise the declared arc width; the substrate never truncates";
    DEC_CHECK(false, msg);
  }
  scratch_len_[slot] = static_cast<std::uint32_t>(fields.size());
  std::int64_t* d = scratch_fields_.data() + slot * kMaxArcFields;
  for (const std::int64_t f : fields) *d++ = f;
}

}  // namespace dec
