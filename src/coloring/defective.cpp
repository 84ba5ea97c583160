#include "coloring/defective.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <string>

#include "coloring/digit_poly.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"
#include "util/prime.hpp"

namespace dec {

namespace {

// Both stages send one field per edge per round.
constexpr SlotPlan kSingleFieldPlan{.max_fields = 1};

int max_of(const std::vector<int>& v) {
  int best = 0;
  for (int x : v) best = std::max(best, x);
  return best;
}

struct PrecolorParams {
  std::int64_t q = 0;
  int d = 0;
};

/// Smallest d such that q = next_prime(max(2, ceil(Δd / p))) covers m. The
/// search uses only the globally known m, Δ, p, so both engines derive it
/// without communication.
PrecolorParams precolor_params(std::int64_t m, std::int64_t delta,
                               int target_defect) {
  PrecolorParams out;
  for (out.d = 1;; ++out.d) {
    out.q = static_cast<std::int64_t>(next_prime(static_cast<std::uint64_t>(
        std::max<std::int64_t>(2, (delta * out.d + target_defect - 1) /
                                      target_defect))));
    std::int64_t cover = 1;
    for (int i = 0; i <= out.d && cover < m; ++i) {
      if (cover > m / out.q) {
        cover = m;
      } else {
        cover *= out.q;
      }
    }
    if (cover >= m) return out;
    DEC_CHECK(out.d < 64, "defective_precolor parameter search diverged");
  }
}

/// Pick the evaluation point with the fewest collisions against the
/// neighbor colors produced by `nbr(i)`: the first r with no collision, else
/// the smallest r with the fewest. Every digit block is decoded once, up
/// front, into `digits` (own block first, then one per neighbor).
template <class NbrFn>
Color precolor_choose(const DigitPoly& poly, Color mine, std::size_t degree,
                      NbrFn&& nbr, std::vector<std::uint32_t>& digits) {
  const std::size_t width = static_cast<std::size_t>(poly.degree()) + 1;
  digits.resize(width * (degree + 1));
  poly.decode(static_cast<std::uint32_t>(mine), digits.data());
  for (std::size_t i = 0; i < degree; ++i) {
    poly.decode(static_cast<std::uint32_t>(nbr(i)),
                digits.data() + (i + 1) * width);
  }
  std::uint32_t best_r = 0;
  std::size_t best_collisions = std::numeric_limits<std::size_t>::max();
  for (std::uint32_t r = 0; r < poly.q(); ++r) {
    const std::uint32_t my_val = poly.eval(digits.data(), r);
    std::size_t coll = 0;
    for (std::size_t i = 1; i <= degree; ++i) {
      if (poly.eval(digits.data() + i * width, r) == my_val) ++coll;
    }
    if (coll < best_collisions) {
      best_collisions = coll;
      best_r = r;
    }
    if (coll == 0) break;
  }
  return static_cast<Color>(best_r * poly.q() +
                            poly.eval(digits.data(), best_r));
}

DefectiveResult precolor_message_passing(const Graph& g,
                                         const std::vector<Color>& input,
                                         const PrecolorParams& p,
                                         RoundLedger* ledger,
                                         int num_threads, NetworkPool* pool,
                                         CancelToken* cancel) {
  const NodeId n = g.num_nodes();
  DefectiveResult res;
  res.palette = static_cast<int>(p.q * p.q);
  res.colors.resize(static_cast<std::size_t>(n));
  ScopedNetwork net_scope(pool, g, ledger, "defective_precolor", num_threads,
                          cancel, kSingleFieldPlan);
  SyncNetwork& net = *net_scope;
  // The one round: every node announces its input color on every edge.
  net.round_fast([&](NodeId v, const auto&, auto&& out) {
    for (auto&& m : out) {
      m.assign({input[static_cast<std::size_t>(v)]});
    }
  });
  // Receiving and the polynomial evaluation are local, hence free. What the
  // announce round delivered on edge (u, v) is input[u] verbatim, so the
  // consume step reads the input vector directly — value-identical to
  // reading the delivered messages, which no later round exists to read.
  const DigitPoly poly(p.q, p.d);
  std::vector<std::uint32_t> digits;
  for (NodeId v = 0; v < n; ++v) {
    const auto nb = g.neighbors(v);
    res.colors[static_cast<std::size_t>(v)] = precolor_choose(
        poly, input[static_cast<std::size_t>(v)], nb.size(),
        [&](std::size_t i) {
          return input[static_cast<std::size_t>(nb[i].neighbor)];
        },
        digits);
  }
  res.rounds = net.rounds_executed();
  res.max_message_bits = net.audit().max_bits();
  res.messages = net.audit().messages_sent();
  return res;
}

// Refine as a node program. The class-step (intent round + move round)
// pipelines onto the substrate one round late: round A of a class-step
// applies the moves arbitrated in the previous step's round B and announces
// colors; round B refreshes each node's neighbor-color cache and lets this
// class's over-threshold members broadcast an intent. The final step's
// in-flight move decisions are consumed locally after the loop. Movers
// within a class-step are pairwise non-adjacent (smallest-id priority), so
// the one-round lag changes no color any decision reads.
//
// The announce round is dirty-flagged: a node re-broadcasts its color only
// if it changed since its last announcement; receivers read unchanged
// colors from their per-incidence caches. Every color change is announced
// in the same round it is applied, so the caches never go stale — rounds
// and colors are those of a full re-broadcast, only the message count
// (simulation wall-clock) drops.
//
// Both rounds are active rounds (SyncNetwork::round_fast(prog, wake)): a
// node with no mail and no pending work is a no-op in either program, so
// only wake ∪ last round's receivers is visited. Round A wakes the previous
// class-step's intenders (the only nodes with pending work once the first
// announce has cleared every dirty flag — a color changes only inside an
// intender's own round A, which announces it at once). Round B wakes the
// acting class. Most class-steps have an empty class and no pending intent,
// so both of their rounds visit nobody.
DefectiveResult refine_message_passing(const Graph& g,
                                       const std::vector<Color>& classes,
                                       int num_classes, int num_colors,
                                       int move_threshold, int max_sweeps,
                                       RoundLedger* ledger, int num_threads,
                                       NetworkPool* pool,
                                       CancelToken* cancel) {
  const NodeId n = g.num_nodes();
  DefectiveResult res;
  res.palette = num_colors;
  res.colors.resize(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    res.colors[static_cast<std::size_t>(v)] =
        classes[static_cast<std::size_t>(v)] % num_colors;
  }

  ScopedNetwork net_scope(pool, g, ledger, "defective_refine", num_threads,
                          cancel, kSingleFieldPlan);
  SyncNetwork& net = *net_scope;

  // Per-node neighbor-color cache, laid out on the network's own slot plane
  // (slot (v, i) caches neighbor i's color), plus the node's own
  // pending-intent and announce-dirty flags. Node programs write only their
  // own slice, so the state is shard-confined on the parallel engine.
  std::vector<Color> nbr_color(net.num_slots(), 0);
  std::vector<char> intent(static_cast<std::size_t>(n), 0);
  // 1 = my color changed since my last announcement (everyone must announce
  // once at the start, so the caches begin fully populated).
  std::vector<char> dirty(static_cast<std::size_t>(n), 1);

  // Move v to its min-conflict color against the neighbor-color cache.
  // The counts live in per-worker scratch: node programs run on every shard,
  // and a per-call vector would put the heap on the round path.
  auto move_to_least_conflict = [&](NodeId v) {
    const auto nb = g.neighbors(v);
    thread_local std::vector<int> count;
    count.assign(static_cast<std::size_t>(num_colors), 0);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      ++count[static_cast<std::size_t>(nbr_color[net.slot(v, i)])];
    }
    Color best = 0;
    for (Color c = 1; c < num_colors; ++c) {
      if (count[static_cast<std::size_t>(c)] <
          count[static_cast<std::size_t>(best)]) {
        best = c;
      }
    }
    if (res.colors[static_cast<std::size_t>(v)] != best) {
      res.colors[static_cast<std::size_t>(v)] = best;
      dirty[static_cast<std::size_t>(v)] = 1;
    }
  };

  // Consume the intent broadcasts of the previous round: an intender moves
  // to its min-conflict color unless a smaller-id neighbor also intended
  // (only same-class nodes intend in any given round, so message presence
  // is the whole arbitration input).
  auto apply_pending = [&](NodeId v, const auto& in) {
    if (intent[static_cast<std::size_t>(v)] == 0) return;
    intent[static_cast<std::size_t>(v)] = 0;
    const auto nb = g.neighbors(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      if (nb[i].neighbor < v && !in[i].empty()) return;  // lost priority
    }
    move_to_least_conflict(v);
  };

  // Class members in id order (counting sort, built once): round B's wake
  // list and the only nodes that can set an intent in their class-step.
  std::vector<NodeId> class_start(static_cast<std::size_t>(num_classes) + 1, 0);
  for (const Color c : classes) ++class_start[static_cast<std::size_t>(c) + 1];
  for (int c = 0; c < num_classes; ++c) {
    class_start[static_cast<std::size_t>(c) + 1] +=
        class_start[static_cast<std::size_t>(c)];
  }
  std::vector<NodeId> class_nodes(static_cast<std::size_t>(n));
  std::vector<NodeId> next_slot(class_start.begin(), class_start.end() - 1);
  for (NodeId v = 0; v < n; ++v) {
    const auto c = static_cast<std::size_t>(classes[static_cast<std::size_t>(v)]);
    class_nodes[static_cast<std::size_t>(next_slot[c]++)] = v;
  }
  // The last class-step's intenders: round A's wake list.
  std::vector<NodeId> intenders;

  res.converged = false;
  for (int sweep = 0; sweep < max_sweeps && !res.converged; ++sweep) {
    bool any_intent = false;
    for (Color cls = 0; cls < num_classes; ++cls) {
      // Round A: settle the previous step's arbitration, announce the
      // colors that changed. Every node is dirty before the first announce,
      // so that round visits all.
      const auto round_a = [&](NodeId v, const auto& in, auto&& out) {
        apply_pending(v, in);
        if (dirty[static_cast<std::size_t>(v)] == 0) return;
        dirty[static_cast<std::size_t>(v)] = 0;
        for (auto&& m : out) {
          m.assign({res.colors[static_cast<std::size_t>(v)]});
        }
      };
      if (sweep == 0 && cls == 0) {
        net.round_fast(round_a);
      } else {
        net.round_fast(round_a, intenders);
      }
      // Round B: fold announced changes into the caches; this class's
      // over-threshold members broadcast an intent to move. Announcements
      // are sparse once colors settle, so the fold runs only for nodes with
      // mail, and only the acting class counts its defect.
      const std::span<const NodeId> members(
          class_nodes.data() + class_start[static_cast<std::size_t>(cls)],
          class_nodes.data() + class_start[static_cast<std::size_t>(cls) + 1]);
      net.round_fast([&](NodeId v, const auto& in, auto&& out) {
        if (in.any()) {
          for (std::size_t i = 0; i < in.size(); ++i) {
            if (!in[i].empty()) {
              nbr_color[net.slot(v, i)] = static_cast<Color>(in[i].at(0));
            }
          }
        }
        if (classes[static_cast<std::size_t>(v)] != cls) return;
        const Color mine = res.colors[static_cast<std::size_t>(v)];
        int defect = 0;
        for (std::size_t i = 0; i < in.size(); ++i) {
          if (nbr_color[net.slot(v, i)] == mine) ++defect;
        }
        if (defect > move_threshold) {
          intent[static_cast<std::size_t>(v)] = 1;
          for (auto&& m : out) m.assign({1});
        }
      }, members);
      // Only this class's members can hold an intent now: round A cleared
      // every earlier intender's flag.
      intenders.clear();
      for (const NodeId v : members) {
        if (intent[static_cast<std::size_t>(v)] != 0) intenders.push_back(v);
      }
      any_intent = any_intent || !intenders.empty();
    }
    ++res.sweeps;
    if (!any_intent) res.converged = true;
  }
  // The last class-step's arbitration is still in flight; consuming it is
  // receive-side computation and costs no round. Message presence on edge
  // (u, v) in the final intent round is exactly intent[u] — only the final
  // class-step's over-threshold members sent, and each set its own flag —
  // so the arbitration reads the intact intent flags directly:
  // value-identical to reading the delivered messages. The flags are
  // cleared only after every node has arbitrated, because each
  // decision reads the neighbors' flags.
  for (NodeId v = 0; v < n; ++v) {
    if (intent[static_cast<std::size_t>(v)] == 0) continue;
    const auto nb = g.neighbors(v);
    bool lost = false;
    for (std::size_t i = 0; i < nb.size() && !lost; ++i) {
      lost = nb[i].neighbor < v &&
             intent[static_cast<std::size_t>(nb[i].neighbor)] != 0;
    }
    if (!lost) move_to_least_conflict(v);
  }
  std::fill(intent.begin(), intent.end(), 0);

  res.rounds = net.rounds_executed();
  res.max_message_bits = net.audit().max_bits();
  res.messages = net.audit().messages_sent();
  return res;
}

}  // namespace

DefectiveResult defective_precolor(const Graph& g,
                                   const std::vector<Color>& input,
                                   int input_palette, int target_defect,
                                   RoundLedger* ledger, int num_threads,
                                   NetworkPool* pool, CancelToken* cancel) {
  DEC_REQUIRE(target_defect >= 1, "target defect must be >= 1");
  DEC_REQUIRE(is_proper_vertex_coloring(g, input), "input must be proper");
  for (const Color c : input) {
    DEC_REQUIRE(c >= 0 && c < input_palette, "input palette bound violated");
  }
  const std::int64_t m = std::max(1, input_palette);
  const std::int64_t delta = std::max(1, g.max_degree());
  const PrecolorParams p = precolor_params(m, delta, target_defect);
  // The palette q² must fit the int32 Color range (and with it the digit
  // kernel's exactness domain).
  DEC_REQUIRE(p.q * p.q <= std::numeric_limits<Color>::max(),
              "defective precolor palette q² = " + std::to_string(p.q * p.q) +
                  " overflows the int32 Color range (Δ = " +
                  std::to_string(delta) + ", target defect = " +
                  std::to_string(target_defect) + ", q = " +
                  std::to_string(p.q) + ")");

  DefectiveResult res =
      precolor_message_passing(g, input, p, ledger, num_threads, pool, cancel);
  res.max_defect = max_of(vertex_defects(g, res.colors));
  DEC_CHECK(res.max_defect <= target_defect,
            "defective precolor exceeded its defect target");
  return res;
}

DefectiveResult defective_refine(const Graph& g,
                                 const std::vector<Color>& classes,
                                 int num_classes, int num_colors,
                                 int move_threshold, int max_sweeps,
                                 RoundLedger* ledger, int num_threads,
                                 NetworkPool* pool, CancelToken* cancel) {
  DEC_REQUIRE(num_colors >= 2, "refine needs at least two colors");
  DEC_REQUIRE(move_threshold >= (g.max_degree() / num_colors) + 1,
              "threshold too tight: moving nodes could never settle");
  DEC_REQUIRE(classes.size() == static_cast<std::size_t>(g.num_nodes()),
              "class vector has wrong length");
  for (const Color c : classes) {
    DEC_REQUIRE(c >= 0 && c < num_classes, "class out of range");
  }

  DefectiveResult res =
      refine_message_passing(g, classes, num_classes, num_colors,
                             move_threshold, max_sweeps, ledger, num_threads,
                             pool, cancel);
  res.max_defect = max_of(vertex_defects(g, res.colors));
  if (!res.converged) {
    // The cap was generous; reaching it without meeting the contract means a
    // genuine failure worth surfacing, not papering over.
    DEC_CHECK(res.max_defect <= move_threshold,
              "defective refine failed to stabilize within the sweep cap");
  }
  return res;
}

DefectiveResult defective_4_coloring(const Graph& g,
                                     const std::vector<Color>& input,
                                     int input_palette, double eps,
                                     RoundLedger* ledger, int num_threads,
                                     NetworkPool* pool, CancelToken* cancel) {
  DEC_REQUIRE(eps > 0.0 && eps <= 1.0, "eps must be in (0, 1]");
  const int delta = g.max_degree();
  const int target = static_cast<int>(eps * delta) + delta / 2;

  if (delta <= 1) {
    // A matching: a proper 2-coloring by edge endpoint order would still not
    // beat defect 0 under simultaneous moves; the refine machinery handles it
    // with threshold >= 1, and defect <= ⌊Δ/2⌋ + εΔ is then 0 only for Δ=0.
    // For Δ <= 1 every 4-coloring has defect <= 1 <= target+? — handle by
    // direct refine with threshold 1 when target >= 1, else trivial proper.
    DefectiveResult res;
    res.palette = 4;
    res.colors.assign(static_cast<std::size_t>(g.num_nodes()), 0);
    if (delta == 1 && target < 1) {
      // Must be fully proper: color each matched pair 0/1 by id order — one
      // round (endpoints compare ids).
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        const auto [u, v] = g.endpoints(e);
        res.colors[static_cast<std::size_t>(std::max(u, v))] = 1;
      }
      res.rounds = 1;
      if (ledger != nullptr) ledger->charge("defective_4_coloring", 1);
    }
    res.max_defect = max_of(vertex_defects(g, res.colors));
    return res;
  }

  // Half the ε budget to the precoloring defect, half to the refine margin.
  const int pre_defect = std::max(1, static_cast<int>(eps * delta / 2.0));
  DefectiveResult pre = defective_precolor(g, input, input_palette, pre_defect,
                                           ledger, num_threads, pool, cancel);

  const int margin = std::max(1, static_cast<int>(eps * delta / 4.0));
  // At small Δ the flat +margin +pre_defect headroom can exceed the Lemma
  // 6.2 target εΔ+⌊Δ/2⌋ itself; clamp to the target (never below the
  // pigeonhole floor Δ/4+1, so refine still terminates via the potential).
  const int threshold = std::max(delta / 4 + 1,
                                 std::min(delta / 4 + margin + pre_defect,
                                          target));
  const int max_sweeps =
      64 + static_cast<int>(16.0 / (eps * eps) / std::max(1, delta));
  DefectiveResult ref =
      defective_refine(g, pre.colors, pre.palette, 4, threshold, max_sweeps,
                       ledger, num_threads, pool, cancel);
  ref.rounds += pre.rounds;
  ref.max_message_bits = std::max(ref.max_message_bits, pre.max_message_bits);
  ref.messages += pre.messages;
  DEC_CHECK(ref.max_defect <= target,
            "Lemma 6.2 contract violated: defect exceeds εΔ + ⌊Δ/2⌋");
  return ref;
}

DefectiveResult defective_split_coloring(const Graph& g,
                                         const std::vector<Color>& input,
                                         int input_palette, int num_colors,
                                         int target_defect,
                                         RoundLedger* ledger) {
  const int delta = g.max_degree();
  DEC_REQUIRE(target_defect >= delta / num_colors + 1,
              "target defect below the pigeonhole floor");
  if (delta == 0) {
    DefectiveResult res;
    res.palette = num_colors;
    res.colors.assign(static_cast<std::size_t>(g.num_nodes()), 0);
    return res;
  }
  // Precolor to O((Δ/p)²) classes with p = half the defect budget (when
  // possible), then refine.
  const int pre_defect = std::max(1, target_defect / 2);
  DefectiveResult pre =
      defective_precolor(g, input, input_palette, pre_defect, ledger);
  const int threshold = std::max(delta / num_colors + 1,
                                 target_defect - pre_defect);
  DefectiveResult ref =
      defective_refine(g, pre.colors, pre.palette, num_colors, threshold, 256,
                       ledger);
  ref.rounds += pre.rounds;
  ref.max_message_bits = std::max(ref.max_message_bits, pre.max_message_bits);
  ref.messages += pre.messages;
  DEC_CHECK(ref.max_defect <= target_defect,
            "defective split contract violated");
  return ref;
}

}  // namespace dec
