#include "sim/network.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "testing/fault_injection.hpp"

namespace dec {

namespace {

// Plane slots per chunk below which a grown plane is zeroed in one serial
// pass: 2^16 slots are 1 MiB, whose page faults and memset take ~0.1 ms on
// one thread. The split-0 leaf L(G)'s 684k-slot plane is zeroed in ~0.3 ms
// at 4 threads against ~1.0 ms serially.
constexpr std::size_t kMinSlotsPerZeroChunk = std::size_t{1} << 16;

// Shared plan validation for construction and per-lease rebind: a declared
// width sizes the spill blocks, so it must be at least one field.
void validate_plan(const SlotPlan& plan) {
  DEC_REQUIRE(plan.max_fields >= 1,
              "slot plan requires declared max_fields >= 1");
}

}  // namespace

SyncNetwork::SyncNetwork(const Graph& g, RoundLedger* ledger,
                         std::string component, int num_threads, SlotPlan plan)
    : SyncNetwork(g, NetworkTopology::plan(g, num_threads), ledger,
                  std::move(component), plan) {}

SyncNetwork::SyncNetwork(const Graph& g,
                         std::shared_ptr<const NetworkTopology> topo,
                         RoundLedger* ledger, std::string component,
                         SlotPlan plan, ThreadPool* executor)
    : g_(&g), topo_(std::move(topo)), exec_(executor) {
  DEC_REQUIRE(topo_ != nullptr, "null topology");
  DEC_REQUIRE(topo_->matches(g), "topology does not fit the graph");
  validate_plan(plan);
  if (exec_ == nullptr) {
    own_exec_ = std::make_unique<ThreadPool>(topo_->num_shards());
    exec_ = own_exec_.get();
  }
  declared_fields_ = plan.max_fields;
  bind_ledger(ledger, std::move(component));
  bind_plan();
}

void SyncNetwork::bind_ledger(RoundLedger* ledger, std::string component) {
  component_ = std::move(component);  // retained for error messages
  ledger_ = ledger;
  counter_.reset();
  if (ledger_ != nullptr) {
    counter_.emplace(ledger_->counter(component_));
  }
}

// Fit the run state to topo_: size the plane and the shard set.
// Reuses existing vector capacity — a pooled network that has seen a larger
// plan allocates nothing here. Stale slots keep their old epoch tags
// (always below any future read epoch, so they read as empty) and may hold
// spill indices into a since-rewound slab; the lazy outbox stamp drops
// those before any use, exactly as it does across ordinary rounds.
void SyncNetwork::bind_plan() {
  offsets_ = topo_->offsets().data();
  peer_slot_ = topo_->peer_slot().data();
  iota_ = topo_->iota_map().data();
  shard_begin_ = topo_->shard_begin().data();

  grow_plane(topo_->num_slots());
  // Both mail halves; surviving tags are stale (at most the last write
  // epoch, below every future read epoch), like surviving slots.
  mail_.resize(2 * static_cast<std::size_t>(topo_->num_nodes()));
  visit_tag_.resize(static_cast<std::size_t>(topo_->num_nodes()));

  const int num_shards = topo_->num_shards();
  DEC_REQUIRE(num_shards <= exec_->num_threads(),
              "plan has " + std::to_string(num_shards) +
                  " shards but the network's executor runs " +
                  std::to_string(exec_->num_threads()) +
                  " threads — plan with the executor's shard count");
  if (static_cast<int>(shards_.size()) != num_shards) {
    shards_.resize(static_cast<std::size_t>(num_shards));
  }
  // Slot -> shard boundaries, used by spill resolution. Slots carry slab
  // indices, not bindings; the outbox hands each write the executing
  // shard's arena directly.
  shard_slot_begin_.resize(static_cast<std::size_t>(num_shards) + 1);
  for (int s = 0; s <= num_shards; ++s) {
    shard_slot_begin_[static_cast<std::size_t>(s)] =
        offsets_[static_cast<std::size_t>(shard_begin_[s])];
  }
  reset();
}

// A plan with more slots than the plane holds gets a fresh plane: every
// old slot is stale, so none is copied. The new slots are zeroed (epoch 0
// is never a read epoch, so they read as empty) in chunks on the borrowed
// executor, whose threads thereby take the fresh pages' first touch.
void SyncNetwork::grow_plane(std::size_t slots) {
  if (slots <= plane_.size()) return;
  plane_ = DefaultInitVector<NarrowSlot>();  // frees the old plane first
  plane_.resize(slots);                       // default-init: nothing written
  NarrowSlot* const plane = plane_.data();
  const int chunks = chunk_count(exec_, slots, kMinSlotsPerZeroChunk);
  const auto cz = static_cast<std::size_t>(chunks);
  exec_->run(chunks, [&](int c) {
    const auto i = static_cast<std::size_t>(c);
    const std::size_t lo = slots * i / cz;
    const std::size_t hi = slots * (i + 1) / cz;
    std::memset(static_cast<void*>(plane + lo), 0,
                (hi - lo) * sizeof(NarrowSlot));
  });
}

void SyncNetwork::reset() {
  // One bump strands every tag the plane can carry: the last finished round
  // wrote epoch E (its deliveries), the next round will read epoch E + 1 and
  // write E + 2. Epochs never rewind (see the header), so slots from any
  // earlier run stay unreadable forever. rounds_ = 0 restarts the parity at
  // even, so pooled runs match fresh ones.
  ++epoch_;
  rounds_ = 0;
  audit_.reset();
  poisoned_ = false;
  for (Shard& sh : shards_) {
    sh.slab[0].reset();
    sh.slab[1].reset();
    sh.touched.clear();
    sh.audit.reset();
    // The lists name receivers of rounds before the reset; the first round
    // after it has no mail to wake anyone for.
    sh.recv[0].clear();
    sh.recv[1].clear();
    sh.visit.clear();
  }
}

void SyncNetwork::rebind(const Graph& g,
                         std::shared_ptr<const NetworkTopology> topo,
                         RoundLedger* ledger, std::string component,
                         SlotPlan plan) {
  validate_plan(plan);
  DEC_REQUIRE(topo != nullptr, "null topology");
  DEC_REQUIRE(topo->matches(g), "topology does not fit the graph");
  declared_fields_ = plan.max_fields;
  g_ = &g;
  bind_ledger(ledger, std::move(component));
  if (topo.get() == topo_.get()) {
    reset();  // same plan: nothing to re-fit
    return;
  }
  topo_ = std::move(topo);
  bind_plan();
}

void SyncNetwork::begin_round() {
  // Cancellation barrier: checked before any round state is touched, so an
  // abort here needs no rollback — the network still sits at its exact
  // post-last-round state. The fault point shares the barrier (throw at
  // round k, inject latency, trip the job's own token mid-phase).
  if (cancel_ != nullptr) cancel_->check();
  DEC_FAULT_POINT_CTX("network.round", cancel_);
  if (poisoned_) {
    DEC_REQUIRE(false,
                "round on a poisoned network: component '" +
                    component_ + "' aborted round " + std::to_string(rounds_) +
                    " after writing slots, overwriting last round's deliveries "
                    "in place — reset() (or release the lease) before reuse");
  }
  ++epoch_;
  // This round's parity slab last held the spills of two rounds ago, whose
  // reads are long done, so it can be rewound. Stale slots may index into
  // the rewound arena, but a stale slot is stamped (count and spill zeroed)
  // before first use and never read through an Inbox.
  // The receiver list of this round's parity still names the receivers of
  // two rounds ago; nobody reads those again.
  for (Shard& sh : shards_) {
    sh.slab[parity()].reset();
    sh.recv[epoch_ & 1u].clear();
  }
}

// A node program threw mid-round (DEC_CHECK is the library's failure mode).
// Undo the partial round: un-stamp and empty every slot written this round
// (epoch 0 is never a write epoch, so the slots read as stale/empty and
// lazily reset on their next use), drop the per-shard audit/touched state,
// and rewind the epoch. If no slot was written, the previous round's
// delivery is still readable and the network stays usable; otherwise it
// poisons itself (see below). The mail tags the round stamped are zeroed
// with one sweep of its half, dense mark included (error path only): its
// write epoch is reused by the re-executed round — or, after reset(),
// becomes a read epoch — and must not report phantom mail. For the same reason the round's receiver appends are
// dropped and its visit tags zeroed: a re-executed active round must collect
// the same visit set, and a node still tagged with the reused epoch would
// read as already collected and be skipped. Last round's receiver list (the
// other parity) is never written during a round, so it is intact.
void SyncNetwork::abort_round() {
  bool touched_any = false;
  for (Shard& sh : shards_) {
    for (const NodeId v : sh.visit) visit_tag_[static_cast<std::size_t>(v)] = 0;
    sh.visit.clear();
    sh.recv[epoch_ & 1u].clear();
    touched_any = touched_any || !sh.touched.empty();
    // Zeroing the header un-stamps the slot (epoch 0 is never a write
    // epoch) and drops count and spill index in one store.
    for (const std::uint32_t s : sh.touched) plane_[s].header_ = 0;
    sh.touched.clear();
    sh.audit.reset();
  }
  if (touched_any) {
    std::fill_n(mail_half(epoch_), topo_->num_nodes(), 0u);
    mail_dense_[epoch_ & 1u] = 0;
  }
  --epoch_;
  // The slots just un-stamped WERE last round's delivered messages (this
  // round's writes land in place); they are gone, so the "exact
  // post-last-round state" contract is unrecoverable. Poison instead of
  // failing silently: the next begin_round throws until reset(). Aborts
  // that never touched a slot (cancellation and fault points fire at the
  // barrier, before any write) leave the state exact and do not poison.
  if (touched_any) poisoned_ = true;
}

void SyncNetwork::finish_round() {
  for (Shard& sh : shards_) {
    audit_.merge(sh.audit);
    sh.audit.reset();
    sh.touched.clear();
  }
  // Delivery: the next round's parity reads exactly the slots this round
  // wrote, so counting the round (which flips the parity) is all it takes.
  ++rounds_;
  if (counter_.has_value()) counter_->charge(1);
}

// The graph's adjacency shares the plan's CSR slot indexing, so a
// sender-side slot s goes to adj[s].neighbor; in odd rounds the touched slot
// is the receiver's own and its peer is the sender-side slot. Shards sending
// to one receiver store the same value concurrently, so the store is a
// relaxed atomic: race-free, and a plain mov on x86.
//
// The tag read before the store deduplicates the receiver list within the
// shard: a receiver is appended only by a stamp that found its tag stale.
// Two shards racing on one receiver may both append it, which the visit
// tags absorb.
void SyncNetwork::stamp_mail(const std::vector<std::uint32_t>& touched,
                             std::size_t shard_nodes, bool out_peer,
                             std::vector<NodeId>& recv) {
  if (touched.empty()) return;  // also keeps a 0-node graph off neighbors(0)
  const std::uint32_t epoch = epoch_;
  if (touched.size() > shard_nodes) {
    std::atomic_ref<std::uint32_t>(mail_dense_[epoch & 1u])
        .store(epoch, std::memory_order_relaxed);
    return;
  }
  const Incidence* adj = g_->neighbors(0).data();
  std::uint32_t* mail_w = mail_half(epoch);
  for (const std::uint32_t s : touched) {
    const NodeId to = adj[out_peer ? peer_slot_[s] : s].neighbor;
    std::atomic_ref<std::uint32_t> tag(mail_w[static_cast<std::size_t>(to)]);
    if (tag.load(std::memory_order_relaxed) != epoch) {
      tag.store(epoch, std::memory_order_relaxed);
      recv.push_back(to);
    }
  }
}

void SyncNetwork::collect_active(std::span<const NodeId> wake) {
  const std::uint32_t epoch = epoch_;
  const std::uint32_t read_parity = (epoch - 1) & 1u;
  const NodeId n = topo_->num_nodes();
  for (Shard& sh : shards_) sh.visit.clear();
  const auto add = [&](NodeId v) {
    std::uint32_t& tag = visit_tag_[static_cast<std::size_t>(v)];
    if (tag == epoch) return;
    tag = epoch;
    std::size_t s = 0;
    while (shard_begin_[s + 1] <= v) ++s;  // a handful of shards: linear
    shards_[s].visit.push_back(v);
  };
  for (const NodeId v : wake) {
    DEC_REQUIRE(v >= 0 && v < n, "active round: wake entry " +
                                     std::to_string(v) +
                                     " is not a node of this network");
    add(v);
  }
  for (const Shard& sh : shards_) {
    for (const NodeId v : sh.recv[read_parity]) add(v);
  }
}

NodeId SyncNetwork::node_of_slot(std::size_t slot) const {
  const auto& offsets = topo_->offsets();
  // First node whose slot range ends past `slot`.
  const auto it =
      std::upper_bound(offsets.begin(), offsets.end(), slot);
  return static_cast<NodeId>((it - offsets.begin()) - 1);
}

void MessageRef::push_long(std::int64_t v) {
  std::int64_t* block = slab_->at_index(slot_->spill());
  const std::uint32_t c = slot_->count();
  if (c != NarrowSlot::kSaturated) {
    // The 255th field saturates the count: shift the payload up one word
    // and keep the true length in front of it (block_fields reserved the
    // word, since only a declared width >= 255 gets here).
    std::copy_backward(block, block + c, block + c + 1);
    block[0] = c;
    slot_->set_count(NarrowSlot::kSaturated);
  }
  const std::int64_t len = block[0];
  if (len >= declared_) {
    net_->throw_width_violation(v_, slot_index_, declared_, len + 1);
  }
  block[1 + len] = v;
  block[0] = len + 1;
}

void SyncNetwork::throw_width_violation(NodeId v, std::size_t slot,
                                        int declared,
                                        std::int64_t actual) const {
  const std::string msg =
      "message wider than the protocol's declared slot plan: component '" +
      component_ + "' round " + std::to_string(rounds_) + ", node " +
      std::to_string(v) + " slot " + std::to_string(slot) + " reached " +
      std::to_string(actual) + " fields but the lease declared max_fields=" +
      std::to_string(declared) +
      " — raise the declared width; the substrate never truncates";
  DEC_CHECK(false, msg);
  std::abort();  // unreachable: DEC_CHECK(false, ...) always throws
}

#ifdef DEC_FAULT_INJECTION
void SyncNetwork::throw_active_contract(NodeId v) const {
  const std::string msg =
      "active-round contract violated: component '" + component_ +
      "' round " + std::to_string(rounds_) + ", node " + std::to_string(v) +
      " is outside wake ∪ last round's receivers but wrote its outbox — an "
      "active round would have skipped it; wake it, or use the full-visit "
      "round_fast(prog)";
  DEC_CHECK(false, msg);
  std::abort();  // unreachable: DEC_CHECK(false, ...) always throws
}
#endif

void SyncNetwork::throw_read_after_write(NodeId v, std::size_t entry) const {
  const std::string msg =
      "read-after-write hazard: component '" + component_ + "' round " +
      std::to_string(rounds_) + ", node " + std::to_string(v) +
      " read inbox entry " + std::to_string(entry) +
      " after writing the outbox slot that shares its storage — node "
      "programs must read every inbox entry they need before writing the "
      "outbox";
  DEC_CHECK(false, msg);
  std::abort();  // unreachable: DEC_CHECK(false, ...) always throws
}

}  // namespace dec
