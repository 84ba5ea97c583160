// Directed adapter over the undirected SyncNetwork slot plane.
//
// Every directed solver in the library runs on this adapter: token dropping
// executes its three-round phases here, and balanced orientation / defective
// 2-edge coloring (whose proposal/accept phases live on the undirected
// SyncNetwork) run each embedded token-dropping game on a DiNetwork over the
// per-phase violation digraph. These games need per-arc message channels on
// an arbitrary digraph — including anti-parallel pairs and parallel arcs,
// which the simple undirected Graph underlying SyncNetwork cannot represent
// as distinct edges. DiNetwork multiplexes them instead:
//
//  * Support graph + lanes. The plan — one undirected support edge per node
//    pair with at least one arc, the arcs between a pair multiplexed as that
//    edge's "lanes" in arc-id order — is the immutable DiTopology
//    (sim/topology.hpp), planned once per digraph shape. Each arc carries an
//    independent forward (tail→head) and backward (head→tail) sub-channel
//    per round; a single-lane payload (the common case) goes on the wire
//    unframed, so the audit sees exactly the solver's own bits; multi-lane
//    messages are length-prefixed per lane. A pair with many parallel arcs
//    frames into a wide support message (lanes × (1 + arc width) fields),
//    which the support slot carries through its saturated-count spill.
//
//  * Run state. This class holds only the support SyncNetwork's run state
//    and the per-arc packing scratch. It is constructible from a cached
//    DiTopology, resettable in O(shards), and rebindable in place to a new
//    arc set on the same (or a different) node set — NetworkPool leases do
//    this so per-phase token-dropping games reuse one arena instead of
//    rebuilding buffers and slabs per phase. Its sharded rounds run on the
//    leasing view's executor.
//
//  * Arc-indexed node programs. A node program addresses channels by its
//    digraph incidence lists: it sends along its j-th out-arc / against its
//    j-th in-arc, and reads what arrived along its j-th in-arc / against
//    its j-th out-arc. Lane packing happens in per-arc scratch slots owned
//    by the writing node, so programs stay data-race-free on the parallel
//    engine by the same confinement argument as SyncNetwork's.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "sim/network.hpp"
#include "sim/topology.hpp"

namespace dec {

/// Read-only view of one arc sub-channel's payload for the current round.
/// Empty when the peer sent nothing on that channel.
class ArcView {
 public:
  ArcView() = default;
  ArcView(const std::int64_t* data, std::size_t n) : data_(data), n_(n) {}

  bool empty() const { return n_ == 0; }
  std::size_t size() const { return n_; }
  std::int64_t at(std::size_t i) const {
    DEC_REQUIRE(i < n_, "arc message field index out of range");
    return data_[i];
  }

 private:
  const std::int64_t* data_ = nullptr;
  std::size_t n_ = 0;
};

class DiNetwork;

/// Incoming arc sub-channels of one node for the current round, indexed by
/// the node's digraph incidence lists. ArcViews point into the support
/// plane's slot or slab storage.
class DiInbox {
 public:
  /// Payload that arrived along the node's j-th in-arc (sent by its tail).
  ArcView along(std::size_t j) const;
  /// Payload that arrived against the node's j-th out-arc (from its head).
  ArcView against(std::size_t j) const;

 private:
  friend class DiNetwork;
  DiInbox(const DiNetwork* net, NodeId v, const Inbox* in)
      : net_(net), v_(v), in_(in) {}

  const DiNetwork* net_;
  NodeId v_;
  const Inbox* in_;
};

/// Outgoing arc sub-channels of one node for the current round. Each send
/// replaces the channel's payload wholesale; untouched channels send
/// nothing.
class DiOutbox {
 public:
  /// Send along the node's j-th out-arc (toward its head).
  void along(std::size_t j, std::initializer_list<std::int64_t> fields);
  /// Send against the node's j-th in-arc (back toward its tail).
  void against(std::size_t j, std::initializer_list<std::int64_t> fields);

 private:
  friend class DiNetwork;
  DiOutbox(DiNetwork* net, NodeId v) : net_(net), v_(v) {}

  DiNetwork* net_;
  NodeId v_;
};

class DiNetwork {
 public:
  /// Widest per-arc payload the adapter carries, and the declared arc
  /// width of the default arc plan.
  static constexpr std::size_t kMaxArcFields = 4;

  /// Plan-and-run convenience: plans a fresh DiTopology for `dg`. `arc_plan`
  /// is the PER-ARC slot plan: its max_fields declares the widest payload a
  /// single arc sub-channel carries; the adapter derives the support
  /// network's per-slot width from it (max_lane_count * (1 + w) fields when
  /// lanes are framed, w unframed). The default plan declares
  /// kMaxArcFields per arc.
  explicit DiNetwork(const Digraph& dg, RoundLedger* ledger = nullptr,
                     std::string component = "dinetwork", int num_threads = 1,
                     SlotPlan arc_plan = {.max_fields = kMaxArcFields});

  /// Build run state on an existing (typically cached) plan. `topo` must fit
  /// `dg` (see DiTopology::matches). `executor` is lent to the support
  /// network (see SyncNetwork's constructor; null: a private one).
  DiNetwork(const Digraph& dg, std::shared_ptr<const DiTopology> topo,
            RoundLedger* ledger = nullptr, std::string component = "dinetwork",
            SlotPlan arc_plan = {.max_fields = kMaxArcFields},
            ThreadPool* executor = nullptr);

  /// O(num_shards) return to the just-constructed state (epoch-based; see
  /// SyncNetwork::reset), keeping the current ledger binding.
  void reset();

  /// Re-target this run state at a different digraph/plan, ledger charge
  /// line and per-arc slot plan in place, reusing support buffers, slabs
  /// and scratch (no allocation when the new plan fits within
  /// what this state ever held). This is how one pooled arena serves a
  /// fresh arc set every phase.
  void rebind(const Digraph& dg, std::shared_ptr<const DiTopology> topo,
              RoundLedger* ledger, std::string component, SlotPlan arc_plan);

  /// Execute one synchronous round: `fn(v, const DiInbox&, DiOutbox&)` per
  /// node, then lane packing onto the support network's slots. Charges one
  /// round. Arc programs meet the support network's read-before-write rule
  /// by construction: every inbox read happens in `fn`, and DiOutbox sends
  /// go to per-arc scratch that pack() writes to the support outbox only
  /// after `fn` returns.
  template <class F>
  void round_fast(F&& fn) {
    net_.round_fast([&](NodeId v, const Inbox& in, Outbox& out) {
      clear_scratch(v);
      const DiInbox din(this, v, &in);
      DiOutbox dout(this, v);
      fn(v, din, dout);
      pack(v, out);
    });
  }

  /// Cancellation token, forwarded to the support network's round barrier
  /// (see SyncNetwork::set_cancel — same granularity, same guarantees).
  void set_cancel(CancelToken* cancel) { net_.set_cancel(cancel); }
  CancelToken* cancel() const { return net_.cancel(); }

  std::int64_t rounds_executed() const { return net_.rounds_executed(); }
  const CongestAudit& audit() const { return net_.audit(); }
  const Digraph& digraph() const { return *dg_; }
  int num_threads() const { return net_.num_threads(); }

  /// Declared per-arc max field count of the current lease.
  int declared_arc_fields() const { return arc_declared_; }

  /// Heap bytes of this run state: the support network's plane/slabs plus
  /// the adapter's lane-packing scratch (both scale with the arc count, so
  /// bytes/node counters must include them).
  std::size_t memory_bytes() const {
    return net_.memory_bytes() +
           scratch_len_.capacity() * sizeof(std::uint32_t) +
           scratch_fields_.capacity() * sizeof(std::int64_t);
  }

  // Lane-plane introspection (tests and tools).
  const Graph& support() const { return topo_->support(); }
  const std::shared_ptr<const DiTopology>& topology() const { return topo_; }
  std::uint32_t lane(EdgeId arc) const {
    return ref_[static_cast<std::size_t>(arc)].lane;
  }
  std::uint32_t lane_count(EdgeId arc) const {
    return ref_[static_cast<std::size_t>(arc)].lane_count;
  }

 private:
  friend class DiInbox;
  friend class DiOutbox;

  void bind_plan();  // refresh cached views + size scratch for topo_
  void clear_scratch(NodeId v);
  void send(std::size_t slot, std::initializer_list<std::int64_t> fields);

  /// Flush this node's touched scratch channels onto its support outbox
  /// slots.
  void pack(NodeId v, Outbox& out) {
    const std::size_t lo = soff_[static_cast<std::size_t>(v)];
    const std::size_t hi = soff_[static_cast<std::size_t>(v) + 1];
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t plo = pack_off_[i];
      const std::size_t phi = pack_off_[i + 1];
      bool any = false;
      for (std::size_t k = plo; k < phi && !any; ++k) {
        any = scratch_len_[pack_list_[k]] > 0;
      }
      if (!any) continue;  // slot untouched: nothing goes on the wire
      MessageRef m = out[i - lo];
      const bool framed = phi - plo > 1;
      for (std::size_t k = plo; k < phi; ++k) {
        const std::uint32_t len = scratch_len_[pack_list_[k]];
        if (framed) m.push(static_cast<std::int64_t>(len));
        const std::int64_t* f =
            scratch_fields_.data() + pack_list_[k] * kMaxArcFields;
        for (std::uint32_t t = 0; t < len; ++t) m.push(f[t]);
      }
    }
  }

  /// Slice one arc's sub-channel out of a support-slot payload. The
  /// returned ArcView points into plane or slab storage, which outlives the
  /// by-value MessageView (until the node's own pack() writes the slot).
  ArcView extract(const MessageView& m, const DiTopology::ArcRef& ref) const {
    if (m.empty()) return {};
    const auto f = m.fields();
    if (ref.lane_count == 1) return {f.data(), f.size()};
    std::size_t pos = 0;
    for (std::uint32_t l = 0; l < ref.lane_count; ++l) {
      DEC_CHECK(pos < f.size(), "malformed multi-lane message");
      const std::size_t len = static_cast<std::size_t>(f[pos]);
      ++pos;
      if (l == ref.lane) {
        return len == 0 ? ArcView{} : ArcView{f.data() + pos, len};
      }
      pos += len;
    }
    DEC_CHECK(false, "lane index beyond the edge's lane count");
    return {};
  }

  const Digraph* dg_;
  std::shared_ptr<const DiTopology> topo_;
  SyncNetwork net_;
  int arc_declared_ = 0;  // declared per-arc max width

  // Hot-path views into *topo_ (refreshed by bind_plan).
  const DiTopology::ArcRef* ref_ = nullptr;
  const std::size_t* soff_ = nullptr;
  const std::size_t* pack_off_ = nullptr;
  const std::uint32_t* pack_list_ = nullptr;

  // Per-arc-sub-channel scratch payloads (2 * num_arcs slots). A slot is
  // written only by its owning node's program, cleared at the start of that
  // node's step, and flushed by pack() — never shared across shards.
  std::vector<std::uint32_t> scratch_len_;
  std::vector<std::int64_t> scratch_fields_;
};

inline ArcView DiInbox::along(std::size_t j) const {
  const auto in_arcs = net_->dg_->in(v_);
  DEC_REQUIRE(j < in_arcs.size(), "in-arc index out of range");
  const DiTopology::ArcRef& ref =
      net_->ref_[static_cast<std::size_t>(in_arcs[j].edge)];
  return net_->extract((*in_)[ref.head_inc], ref);
}

inline ArcView DiInbox::against(std::size_t j) const {
  const auto out_arcs = net_->dg_->out(v_);
  DEC_REQUIRE(j < out_arcs.size(), "out-arc index out of range");
  const DiTopology::ArcRef& ref =
      net_->ref_[static_cast<std::size_t>(out_arcs[j].edge)];
  return net_->extract((*in_)[ref.tail_inc], ref);
}

inline void DiOutbox::along(std::size_t j,
                            std::initializer_list<std::int64_t> fields) {
  const auto out_arcs = net_->dg_->out(v_);
  DEC_REQUIRE(j < out_arcs.size(), "out-arc index out of range");
  net_->send(static_cast<std::size_t>(out_arcs[j].edge), fields);
}

inline void DiOutbox::against(std::size_t j,
                              std::initializer_list<std::int64_t> fields) {
  const auto in_arcs = net_->dg_->in(v_);
  DEC_REQUIRE(j < in_arcs.size(), "in-arc index out of range");
  net_->send(static_cast<std::size_t>(net_->dg_->num_arcs()) +
                 static_cast<std::size_t>(in_arcs[j].edge),
             fields);
}

}  // namespace dec
