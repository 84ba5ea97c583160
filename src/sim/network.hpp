// Synchronous message-passing network over an undirected Graph.
//
// This is the LOCAL / CONGEST model: computation proceeds in rounds; in each
// round every node reads the messages its neighbors sent in the previous
// round, computes, and writes one (possibly empty) message per incident
// edge. Node callbacks only ever see last-round messages plus their own
// state, so execution order within a round is unobservable and the engine is
// free to run nodes serially (id order) or sharded across threads.
//
// The substrate splits into two layers (full architecture notes, including
// the slot format, epoch tagging, swap delivery, and the parallel round
// engine, live in docs/ARCHITECTURE.md):
//
//  * Plan: an immutable NetworkTopology (sim/topology.hpp) — CSR slot
//    offsets, peer-slot permutation, shard partition — planned once per
//    graph shape and shared by shared_ptr.
//
//  * Run state: this class — the message plane, slab arenas, epoch
//    counter, round count and audit. Constructible from a cached plan,
//    O(1)-resettable (reset()) and rebindable to a new graph (rebind())
//    without replanning; NetworkPool (sim/pool.hpp) arenas both.
//
// Sharded rounds run on a borrowed executor (util/thread_pool.hpp): a
// network a NetworkPool view builds uses the view's, and one built outside
// any view owns a private one.
//
// The round hot path is allocation-free: every slot is a 16 B NarrowSlot
// (one inline field; wider payloads spill to a per-shard MessageSlab, sized
// by the lease's declared width), slot validity is epoch-tagged (no clear
// sweeps), and delivery needs no copy or swap: the run state owns ONE
// message plane whose slot ownership alternates with round parity, so last
// round's write sits exactly where this round's read looks (see
// docs/ARCHITECTURE.md "Message plane"). Serial and sharded execution are
// bit-identical.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/cancel.hpp"
#include "sim/ledger.hpp"
#include "sim/message.hpp"
#include "sim/slab.hpp"
#include "sim/topology.hpp"
#include "testing/fault_injection.hpp"
#include "util/default_init.hpp"
#include "util/thread_pool.hpp"

namespace dec {

class SyncNetwork;

/// By-value read view of one slot's payload: empty, or the fields a
/// neighbor sent (inline or in the slab).
class MessageView {
 public:
  MessageView() = default;
  explicit MessageView(std::span<const std::int64_t> fields)
      : fields_(fields) {}

  bool empty() const { return fields_.empty(); }
  std::size_t size() const { return fields_.size(); }
  std::int64_t at(std::size_t i) const {
    DEC_REQUIRE(i < fields_.size(), "message field index out of range");
    return fields_[i];
  }
  std::span<const std::int64_t> fields() const { return fields_; }

 private:
  std::span<const std::int64_t> fields_;
};

/// Read-only view of one node's incoming messages for the current round.
/// Entry i is what g.neighbors(v)[i] sent last round, empty when its epoch
/// tag is stale (the neighbor sent nothing). operator[] returns a view BY
/// VALUE; `const auto&` at call sites binds it.
///
/// Addressing is uniform — entry i reads buf_[map_[i]], with the round's
/// base slot folded into buf_ at construction. Odd rounds pass the plane
/// base and the node's peer-permutation slice; even rounds pass the node's
/// first slot and the topology's tiny iota map. One L1-hot map load instead
/// of a parity branch keeps the read path free of parity tests. A slot
/// tagged with this round's WRITE epoch (epoch_ + 1) means the program wrote
/// this entry's outbox slot, which shares the entry's storage, before
/// reading the entry — that read-after-write hazard throws instead of
/// returning the node's own message. The check sits on the stale path only.
///
/// any() is the node's O(1) mail summary (docs/ARCHITECTURE.md "Mail
/// summary"): false guarantees every entry reads empty this round, so a
/// program may skip its inbox scan; true means some neighbor may have sent.
class Inbox {
 public:
  MessageView operator[](std::size_t i) const;  // defined after SyncNetwork
  std::size_t size() const { return n_; }
  bool any() const { return any_; }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = MessageView;
    using reference = MessageView;
    using difference_type = std::ptrdiff_t;

    const_iterator(const Inbox* box, std::size_t i) : box_(box), i_(i) {}
    MessageView operator*() const { return (*box_)[i_]; }
    const_iterator& operator++() { ++i_; return *this; }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const Inbox* box_;
    std::size_t i_;
  };

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, n_}; }

 private:
  friend class SyncNetwork;
  Inbox(const SyncNetwork* net, const NarrowSlot* buf,
        const std::uint32_t* map, std::size_t n, std::uint32_t epoch,
        std::uint32_t base, NodeId v, bool any)
      : net_(net), buf_(buf), map_(map), n_(n), epoch_(epoch), base_(base),
        v_(v), any_(any) {}

  const SyncNetwork* net_;    // resolves slab spills of multi-field payloads
  const NarrowSlot* buf_;     // plane base + round base slot
  const std::uint32_t* map_;  // peer permutation slice / iota map
  std::size_t n_;
  std::uint32_t epoch_;   // read epoch; epoch_ + 1 is the round's write epoch
  std::uint32_t base_;    // global-index reconstruction (spill path only)
  NodeId v_;
  bool any_;  // mail summary
};

/// Write proxy for one outbox slot (returned BY VALUE by
/// Outbox::operator[]): assign/push/clear. Exceeding the lease's declared
/// width throws an actionable error, never truncates. The second field of a
/// slot moves the payload into an index-addressed slab block sized for the
/// declared width, so a declared-1 lease never touches the slab at all; the
/// 255th field saturates the slot's count (see NarrowSlot), which only
/// leases declaring 255 or more fields can reach.
class MessageRef {
 public:
  void assign(std::initializer_list<std::int64_t> init) {
    clear();
    for (const std::int64_t v : init) push(v);
  }
  void push(std::int64_t v);  // defined after SyncNetwork
  void clear() { slot_->set_count(0); }

 private:
  friend class Outbox;
  MessageRef(NarrowSlot* slot, MessageSlab* slab, const SyncNetwork* net,
             NodeId v, std::uint32_t slot_index, int declared)
      : slot_(slot), slab_(slab), net_(net), v_(v), slot_index_(slot_index),
        declared_(declared) {}

  /// Push onto a payload of 254 or more fields: the saturated layout, kept
  /// out of the inlined hot path.
  void push_long(std::int64_t v);

  NarrowSlot* slot_;
  MessageSlab* slab_;        // executing shard's write-plane arena
  const SyncNetwork* net_;   // error context (component, round)
  NodeId v_;
  std::uint32_t slot_index_;
  int declared_;
};

/// Write view of one node's outgoing slots for the current round. Slots are
/// lazily stamped on first touch (the epoch-tag stamp doubles as the
/// clear), so untouched slots cost nothing and there is no per-round clear
/// sweep. Addressing mirrors Inbox (peer permutation off the plane base in
/// odd rounds, the iota map off the node's first slot in even ones); base_
/// reconstructs the global index for the touched list. Spills go to the
/// EXECUTING shard's write arena: odd rounds write slots in other shards'
/// ranges, and two shards must never allocate from one arena concurrently.
/// Iteration yields proxies by value — range-for with `auto&&`.
class Outbox {
 public:
  MessageRef operator[](std::size_t i) {
    const std::uint32_t off = map_[i];
    NarrowSlot& s = buf_[off];
    const std::uint32_t idx = base_ + off;  // global; MessageRef error context
    if (s.epoch() != epoch_) {
      s.stamp(epoch_);
      touched_->push_back(idx);
    }
    return MessageRef{&s, slab_, net_, v_, idx, declared_};
  }

  std::size_t size() const { return n_; }

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = MessageRef;
    using reference = MessageRef;
    using difference_type = std::ptrdiff_t;

    iterator(Outbox* box, std::size_t i) : box_(box), i_(i) {}
    MessageRef operator*() const { return (*box_)[i_]; }
    iterator& operator++() { ++i_; return *this; }
    bool operator==(const iterator& o) const { return i_ == o.i_; }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }

   private:
    Outbox* box_;
    std::size_t i_;
  };

  iterator begin() { return {this, 0}; }
  iterator end() { return {this, n_}; }

 private:
  friend class SyncNetwork;
  Outbox(NarrowSlot* buf, const std::uint32_t* map, std::uint32_t base,
         MessageSlab* slab, const SyncNetwork* net, NodeId v, std::size_t n,
         std::uint32_t epoch, std::vector<std::uint32_t>* touched,
         int declared)
      : buf_(buf), map_(map), base_(base), slab_(slab), net_(net), v_(v),
        n_(n), epoch_(epoch), touched_(touched), declared_(declared) {}

  NarrowSlot* buf_;           // plane base + round base slot
  const std::uint32_t* map_;  // peer permutation slice / iota map
  std::uint32_t base_;        // global-index reconstruction
  MessageSlab* slab_;
  const SyncNetwork* net_;
  NodeId v_;
  std::size_t n_;
  std::uint32_t epoch_;
  std::vector<std::uint32_t>* touched_;
  int declared_;
};

class SyncNetwork {
 public:
  /// Plan-and-run convenience: plans a fresh topology for `g`. `component`
  /// names the ledger line that rounds are charged to; `ledger` may be null
  /// (rounds still counted locally). `num_threads` > 1 shards the nodes over
  /// the parallel round engine (0 = hardware concurrency is resolved by the
  /// callers that accept it, see resolve_num_threads). `plan` declares the
  /// protocol's max per-message field count. The network owns a private
  /// executor of the plan's shard count.
  explicit SyncNetwork(const Graph& g, RoundLedger* ledger = nullptr,
                       std::string component = "network", int num_threads = 1,
                       SlotPlan plan = {});

  /// Build run state on an existing (typically cached) plan. `topo` must fit
  /// `g` (same shape — see NetworkTopology::matches); the shard count is the
  /// plan's. Sharded rounds run on `executor`, which must outlive the
  /// network and have at least as many threads as any plan the network is
  /// bound to; null gives the network a private one of the plan's shard
  /// count.
  SyncNetwork(const Graph& g, std::shared_ptr<const NetworkTopology> topo,
              RoundLedger* ledger = nullptr, std::string component = "network",
              SlotPlan plan = {}, ThreadPool* executor = nullptr);

  /// Return to the just-constructed state in O(num_shards): one epoch bump
  /// invalidates every slot of the plane (including the last delivered
  /// inbox), slabs rewind, rounds/audit clear, and a poisoned state (see
  /// abort_round) becomes usable again. No slot sweeps, no replanning, no
  /// allocation.
  void reset();

  /// Re-target this run state at a different graph/plan, ledger charge
  /// line and per-lease slot plan (the declared max field count may change
  /// between leases), reusing buffer and shard storage (no allocation when
  /// the new plan needs no more slots or shards than this state ever had).
  /// O(num_shards) when `topo` is the plan already bound (degenerates to
  /// reset()). The new plan may not have more shards than the executor has
  /// threads.
  void rebind(const Graph& g, std::shared_ptr<const NetworkTopology> topo,
              RoundLedger* ledger, std::string component, SlotPlan plan);

  /// Execute one synchronous round and charge it to the ledger:
  /// `fn(v, const Inbox&, Outbox&)` runs once per node. `fn` stays a
  /// concrete callable — no type erasure on the per-node call. With
  /// num_threads > 1, `fn` is invoked concurrently from executor threads and
  /// must confine writes to its own node's state and outbox. Each inbox
  /// entry shares its storage with one outbox slot, so a program must read
  /// every entry it needs before writing the outbox (a read after the write
  /// throws). A program that throws mid-round after writing has overwritten
  /// some of last round's deliveries: the network then refuses further
  /// rounds until reset() (or a pool re-lease).
  template <class F>
  void round_fast(F&& fn) {
    begin_round();
    try {
      run_all_shards<false>(fn);
    } catch (...) {
      abort_round();  // roll back to the pre-round state, then rethrow
      throw;
    }
    finish_round();
  }

  /// Active-set round (docs/ARCHITECTURE.md "Active rounds"): visits only
  /// `wake` ∪ {nodes that received mail last round}, each once, on the
  /// caller thread and under its owning shard. `wake` may hold duplicates
  /// and any order; the visit order is unspecified.
  /// Contract: every node outside that union must be a no-op for `fn` —
  /// with no mail and no pending work it must neither write its outbox nor
  /// change state — so the round is bit-identical to round_fast(fn): same
  /// epoch bump, round count, ledger charge, audit and mail summary. An
  /// empty union costs O(shards) and dispatches nothing. If some shard took
  /// the dense-mark path last round (no receiver lists), every node is
  /// visited.
  template <class F>
  void round_fast(F&& fn, std::span<const NodeId> wake) {
    // A dense last round skipped its receiver lists: visit everyone.
    if (mail_dense_[epoch_ & 1u] == epoch_) {
      round_fast(fn);
      return;
    }
    begin_round();
    try {
      collect_active(wake);
#ifdef DEC_FAULT_INJECTION
      if (fault::full_visit_check()) {
        run_checked_full_visit(fn);
      } else {
        run_all_shards<true>(fn);
      }
#else
      run_all_shards<true>(fn);
#endif
    } catch (...) {
      abort_round();
      throw;
    }
    finish_round();
  }

  /// Install (or clear, with null) the cooperative cancellation token.
  /// Checked once per round at the barrier (top of begin_round, before any
  /// round state is touched): a tripped token throws SolverAborted and
  /// leaves the network in its exact post-last-round state — the previous
  /// round's delivery still readable, no abort_round needed. The token must
  /// outlive its installation; pooled leases clear it on release.
  void set_cancel(CancelToken* cancel) { cancel_ = cancel; }
  CancelToken* cancel() const { return cancel_; }

  /// Rounds executed so far on this network (since construction or the last
  /// reset()/rebind()).
  std::int64_t rounds_executed() const { return rounds_; }

  const CongestAudit& audit() const { return audit_; }
  const Graph& graph() const { return *g_; }
  const std::shared_ptr<const NetworkTopology>& topology() const {
    return topo_;
  }
  int num_threads() const { return topo_->num_shards(); }

  /// Heap bytes of this run state: the message plane, the mail and visit
  /// tags, and the per-shard spill arenas and touched, receiver and visit
  /// lists. Excludes the shared plan (NetworkTopology::memory_bytes) and the
  /// graph (Graph::memory_bytes) — the three together are the per-node
  /// budget docs/ARCHITECTURE.md "Graph storage & scale" tracks.
  std::size_t memory_bytes() const {
    std::size_t bytes = plane_.capacity() * sizeof(NarrowSlot);
    for (const auto& sh : shards_) {
      bytes += sh.slab[0].capacity_bytes() + sh.slab[1].capacity_bytes();
      bytes += sh.touched.capacity() * sizeof(std::uint32_t);
      bytes += (sh.recv[0].capacity() + sh.recv[1].capacity() +
                sh.visit.capacity()) *
               sizeof(NodeId);
    }
    bytes += shard_slot_begin_.capacity() * sizeof(std::size_t);
    bytes += (mail_.capacity() + visit_tag_.capacity()) * sizeof(std::uint32_t);
    return bytes;
  }

  /// Ledger component this run state charges (error-message context).
  const std::string& component() const { return component_; }
  /// Declared max per-message field count of the current lease.
  int declared_fields() const { return declared_fields_; }

  // Slot-plane introspection (tests and tools).
  std::size_t num_slots() const { return topo_->num_slots(); }
  std::size_t slot(NodeId v, std::size_t i) const {
    return offsets_[static_cast<std::size_t>(v)] + i;
  }
  std::size_t peer_slot(std::size_t s) const { return peer_slot_[s]; }

 private:
  friend class Inbox;       // resolve_spill, throw_read_after_write
  friend class MessageRef;  // throw_width_violation

  void begin_round();
  void finish_round();
  void abort_round();
  void bind_ledger(RoundLedger* ledger, std::string component);
  void bind_plan();  // (re)size the plane and shards for topo_
  void grow_plane(std::size_t slots);  // plane of at least `slots` slots

  /// Parity of the round in progress (or next to run): 0 even, 1 odd. Every
  /// finished round flips it and reset() restarts it at even, so it is the
  /// low bit of the round count.
  std::uint32_t parity() const {
    return static_cast<std::uint32_t>(rounds_ & 1);
  }

  /// Actionable declared-width violation: names the protocol component,
  /// round, node, slot, and declared-vs-actual field count.
  [[noreturn]] void throw_width_violation(NodeId v, std::size_t slot,
                                          int declared,
                                          std::int64_t actual) const;

  /// Actionable read-after-write hazard: node v read inbox entry i after
  /// writing the outbox slot that shares its storage.
  [[noreturn]] void throw_read_after_write(NodeId v, std::size_t entry) const;

  /// Resolve a slot's spilled payload written by the previous round. Its
  /// block lives in the slab of the previous round's parity, which
  /// begin_round did NOT rewind, owned by the shard that wrote it. In even
  /// rounds that writer is the slot's peer (odd-round writes go through the
  /// permutation), so the shard lookup first maps the slot to the writing
  /// side; in odd rounds the slot index is the writer's own.
  const std::int64_t* resolve_spill(std::size_t slot,
                                    std::uint32_t spill) const {
    const std::uint32_t p = parity();
    if (p == 0) slot = peer_slot_[slot];
    std::size_t s = 0;
    while (shard_slot_begin_[s + 1] <= slot) ++s;
    return shards_[s].slab[p ^ 1u].at_index(spill);
  }

  // Every shard over its whole node range (kActive = false) on the
  // executor, shard 0 on the caller, or over its collected visit list
  // (kActive = true) on the caller thread — each shard under its own
  // touched list, write slab and audit either way (spill resolution finds a
  // payload's slab from the slot's owning shard). Active sets are a handful
  // of nodes per round, far below what repays a barrier.
  template <bool kActive, class F>
  void run_all_shards(F& fn) {
    const int num_shards = topo_->num_shards();
    if (!kActive && num_shards > 1) {
      exec_->run(num_shards,
                 [&](int shard) { run_shard_as<kActive>(fn, shard); });
    } else {
      for (int s = 0; s < num_shards; ++s) run_shard_as<kActive>(fn, s);
    }
  }

  /// Build this round's visit set: wake ∪ last round's receiver lists,
  /// deduplicated by visit tag and split into per-shard lists by owning
  /// shard, in collection order.
  void collect_active(std::span<const NodeId> wake);

#ifdef DEC_FAULT_INJECTION
  // Contract check for active rounds (fault::set_full_visit_check): visit
  // every node, and throw if one outside the visit set writes its outbox.
  // A skipped node that only changes local state is caught by comparing
  // outputs against the active run.
  template <class F>
  void run_checked_full_visit(F& fn) {
    auto checked = [&](NodeId v, const Inbox& in, Outbox& out) {
      if (visit_tag_[static_cast<std::size_t>(v)] == epoch_) {
        fn(v, in, out);
        return;
      }
      const std::size_t before = out.touched_->size();
      fn(v, in, out);
      if (out.touched_->size() != before) throw_active_contract(v);
    };
    run_all_shards<false>(checked);
  }
  [[noreturn]] void throw_active_contract(NodeId v) const;
#endif

  // run_shard_impl's compile-time parity variant: each parity folds its box
  // addressing (direct or through the peer permutation) at compile time.
  template <bool kActive, class F>
  void run_shard_as(F& fn, int shard) {
    if (parity() == 0) {
      run_shard_impl<false, kActive>(fn, shard);
    } else {
      run_shard_impl<true, kActive>(fn, shard);
    }
  }

  template <bool kOdd, bool kActive, class F>
  void run_shard_impl(F& fn, int shard) {
    Shard& sh = shards_[static_cast<std::size_t>(shard)];
    const std::uint32_t write_epoch = epoch_;
    const std::uint32_t read_epoch = epoch_ - 1;
    const NodeId vbegin = shard_begin_[static_cast<std::size_t>(shard)];
    const NodeId vend = shard_begin_[static_cast<std::size_t>(shard) + 1];
    MessageSlab* write_slab = &sh.slab[kOdd ? 1 : 0];
    NarrowSlot* const plane = plane_.data();
    // Parity mapping (docs/ARCHITECTURE.md "Message plane"): in even rounds
    // a node reads AND writes its own CSR slots; in odd rounds both go
    // through the peer permutation. Either way each slot has exactly one
    // accessing node per round, and last round's write sits exactly where
    // this round's read looks — delivery without a copy or a swap.
    constexpr bool in_direct = !kOdd;
    constexpr bool out_peer = kOdd;
    // Mail summary: inboxes read last round's half of the tags (or its
    // dense-round mark); this round's half is stamped by stamp_mail below.
    const std::uint32_t* mail_r = mail_half(read_epoch);
    const bool dense = mail_dense_[read_epoch & 1u] == read_epoch;
    // The full visit walks the shard's node range; an active round walks
    // its visit list. kActive is a template constant, so the full-visit
    // instantiation compiles to the plain range loop.
    const NodeId* const list = kActive ? sh.visit.data() : nullptr;
    const std::size_t count = kActive
                                  ? sh.visit.size()
                                  : static_cast<std::size_t>(vend - vbegin);
    for (std::size_t j = 0; j < count; ++j) {
      const NodeId v =
          kActive ? list[j] : vbegin + static_cast<NodeId>(j);
      const std::size_t lo = offsets_[static_cast<std::size_t>(v)];
      const std::size_t deg = offsets_[static_cast<std::size_t>(v) + 1] - lo;
      const bool any =
          dense || mail_r[static_cast<std::size_t>(v)] == read_epoch;
      // Box addressing is always buf[map[i]] with the round's base slot
      // folded into buf; the compile-time mode only picks each box's
      // (base, map) pair — the node's first slot with the L1-resident iota
      // map for direct rounds, base 0 with the node's peer-permutation
      // slice for delivered ones — so the accessors carry no mode test, no
      // per-access add, and the selects below fold per instantiation.
      const std::uint32_t* in_map = in_direct ? iota_ : peer_slot_ + lo;
      const std::size_t in_base = in_direct ? lo : 0;
      const std::uint32_t* out_map = out_peer ? peer_slot_ + lo : iota_;
      const std::size_t out_base = out_peer ? 0 : lo;
      const Inbox in(this, plane + in_base, in_map, deg, read_epoch,
                     static_cast<std::uint32_t>(in_base), v, any);
      Outbox out(plane + out_base, out_map,
                 static_cast<std::uint32_t>(out_base), write_slab, this, v,
                 deg, write_epoch, &sh.touched, declared_fields_);
      fn(v, in, out);
    }
    // Audit this shard's sent slots while still on the worker; merged (max /
    // sum, order-independent) at the barrier. The declared width was
    // already enforced in MessageRef::push, before any slab traffic.
    for (const std::uint32_t s : sh.touched) {
      const NarrowSlot& slot = plane[s];
      const std::uint32_t c = slot.count();
      if (c <= 1) {
        sh.audit.observe(std::span<const std::int64_t>(&slot.payload_, c));
      } else {
        sh.audit.observe(
            NarrowSlot::spilled(write_slab->at_index(slot.spill()), c));
      }
    }
    stamp_mail(sh.touched, static_cast<std::size_t>(vend - vbegin), out_peer,
               sh.recv[write_epoch & 1u]);
  }

  /// Record this shard's sends in the mail summary: stamp the receiver of
  /// every touched slot in this round's half of the tags, or — when the
  /// shard sent more messages than it has nodes — mark the whole round
  /// dense instead. The first stamp this shard makes for a receiver also
  /// appends it to `recv`, the shard's receiver list for this round's
  /// parity (the next active round's visit set); the dense path appends
  /// nothing. Out of line on purpose: inlined into run_shard_impl, the
  /// atomic store made the compiler reload round state around it and cost
  /// all-send rounds ~2x.
  void stamp_mail(const std::vector<std::uint32_t>& touched,
                  std::size_t shard_nodes, bool out_peer,
                  std::vector<NodeId>& recv);

  /// Owning node of a global slot index (binary search over the CSR
  /// offsets). Error-path only — never on the hot path.
  NodeId node_of_slot(std::size_t slot) const;

  /// The mail-tag half a round with write (or read) epoch `epoch` uses.
  std::uint32_t* mail_half(std::uint32_t epoch) {
    return mail_.data() +
           (epoch & 1u) * static_cast<std::size_t>(topo_->num_nodes());
  }
  struct Shard {
    // Spill arenas by write parity: slab[0] holds even rounds' spills,
    // slab[1] odd rounds'. A round rewinds its own parity's arena and reads
    // the other, which holds the previous round's blocks.
    MessageSlab slab[2];
    std::vector<std::uint32_t> touched;
    CongestAudit audit;
    // Receivers this shard's sends stamped, per write-epoch parity: the
    // round writing e fills recv[e & 1] (cleared by its begin_round) while
    // an active round reads the previous round's recv[(e - 1) & 1]. May
    // repeat a node another shard also listed; the visit tags dedupe.
    std::vector<NodeId> recv[2];
    // This active round's visit set restricted to the shard's own nodes
    // (collect_active).
    std::vector<NodeId> visit;
  };

  const Graph* g_;
  std::shared_ptr<const NetworkTopology> topo_;
  // Hot-path views into *topo_ (refreshed by bind_plan).
  const std::size_t* offsets_ = nullptr;
  const std::uint32_t* peer_slot_ = nullptr;
  const std::uint32_t* iota_ = nullptr;  // iota map (direct rounds)
  const NodeId* shard_begin_ = nullptr;

  RoundLedger* ledger_ = nullptr;
  std::optional<RoundLedger::Counter> counter_;  // cached ledger slot
  CancelToken* cancel_ = nullptr;  // not owned; null = no cancellation
  std::int64_t rounds_ = 0;
  CongestAudit audit_;
  // Write epoch of the round in progress. Monotonic across reset()/rebind()
  // (never rewound past construction), so stale slot tags from earlier runs
  // can never equal a future read epoch. uint32 wrap would take 4G rounds on
  // one run state; regarded as unreachable. The mail tags, dense marks and
  // visit tags below share this epoch domain: any wrap renormalization that
  // zeroes slot tags must zero them too, and clear the per-shard receiver
  // lists (a list left over from before the wrap would name stale
  // receivers).
  std::uint32_t epoch_ = 0;
  // Mail summary: two parity halves of per-node epoch tags (2 × num_nodes).
  // Half (e & 1) holds "some neighbor sent to v in the round writing e"; a
  // round writes one half while its inboxes read the other, so no sender
  // overwrites a tag its receiver has yet to read.
  // Stale tags read as no mail exactly like stale slots, so reset()/rebind()
  // need no sweep. Conservative: a slot touched and then cleared still
  // stamps its receiver.
  std::vector<std::uint32_t> mail_;
  // Dense-round mark per half: mail_dense_[e & 1] == e means some shard of
  // the round writing e sent more messages than it has nodes and skipped
  // its per-message stamps, so every inbox of the next round reports mail.
  // A round that dense leaves few receivers quiet, and the stamps would be
  // pure overhead on the all-send path.
  std::uint32_t mail_dense_[2] = {0, 0};
  // Active-round visit tags, one per node: visit_tag_[v] == e means v is
  // already in the visit set of the round writing e. Stale tags need no
  // sweep, like stale slots; abort_round zeroes the aborted round's.
  std::vector<std::uint32_t> visit_tag_;

  // The message plane, one slot per CSR incidence: read and written in
  // place, with slot ownership alternating by round parity. Its size only
  // grows (bind_plan); slots past the plan's num_slots() sit unused.
  DefaultInitVector<NarrowSlot> plane_;
  // A mid-round abort that wrote a slot has already overwritten some of last
  // round's deliveries in place, so the pre-round state is unrecoverable;
  // the network poisons itself and the next begin_round throws until
  // reset(). Barrier-point aborts (cancellation, begin_round fault points)
  // never touch a slot and never poison.
  bool poisoned_ = false;

  int declared_fields_ = 1;  // per-lease declared max width
  std::string component_;    // retained for error messages
  // Global slot index at each shard's first slot (num_shards + 1 entries);
  // lets spill resolution find the owning shard's slab.
  std::vector<std::size_t> shard_slot_begin_;

  std::vector<Shard> shards_;
  std::unique_ptr<ThreadPool> own_exec_;  // set when none was lent
  ThreadPool* exec_ = nullptr;            // the executor sharded rounds use
};

// Defined here (not in-class) because they need the complete SyncNetwork.

inline MessageView Inbox::operator[](std::size_t i) const {
  const std::uint32_t off = map_[i];
  const NarrowSlot& s = buf_[off];
  if (s.epoch() != epoch_) {
    // Stale path only: a slot stamped with this round's write epoch was
    // written before this read.
    if (s.epoch() == epoch_ + 1) net_->throw_read_after_write(v_, i);
    return {};
  }
  const std::uint32_t c = s.count();
  if (c <= 1) return MessageView({&s.payload_, c});
  return MessageView(
      NarrowSlot::spilled(net_->resolve_spill(base_ + off, s.spill()), c));
}

inline void MessageRef::push(std::int64_t v) {
  const std::uint32_t c = slot_->count();
  // Enforce the declared width BEFORE any slab traffic, so an overflowing
  // program throws without corrupting the spill arena. (A saturated count
  // understates the length; push_long checks the true one.)
  if (static_cast<int>(c) >= declared_) {
    net_->throw_width_violation(v_, slot_index_, declared_, c + 1);
  }
  if (c == 0) {
    slot_->payload_ = v;
  } else {
    if (c == 1) {
      // Second field: move inline payload into a slab block sized for the
      // declared width (allocated once; never grown).
      const std::uint32_t idx =
          slab_->allocate_index(NarrowSlot::block_fields(declared_));
      slab_->at_index(idx)[0] = slot_->payload_;
      slot_->set_spill(idx);
    }
    if (c >= NarrowSlot::kSaturated - 1) {
      push_long(v);
      return;
    }
    slab_->at_index(slot_->spill())[c] = v;
  }
  slot_->set_count(c + 1);
}

}  // namespace dec
