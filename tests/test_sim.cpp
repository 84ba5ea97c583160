// Simulator tests: ledger accounting, message bit accounting, SyncNetwork
// delivery semantics (synchrony, per-edge channels, audit), the flat slot
// plane (slab spill, peer pairing), serial-vs-parallel equivalence, the mail
// summary, and active-set rounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "coloring/linial.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "sim/ledger.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"
#include "sim/slab.hpp"

namespace dec {
namespace {

TEST(Ledger, ChargesAndBreakdown) {
  RoundLedger l;
  l.charge("a", 3);
  l.charge("b", 2);
  l.charge("a", 1);
  EXPECT_EQ(l.total(), 6);
  EXPECT_EQ(l.component("a"), 4);
  EXPECT_EQ(l.component("missing"), 0);
  EXPECT_THROW(l.charge("neg", -1), CheckError);
}

TEST(Ledger, LogStarCharge) {
  RoundLedger l;
  l.charge_log_star(65536);
  EXPECT_EQ(l.component("log*"), 4);
}

TEST(Ledger, MergeAndReset) {
  RoundLedger a, b;
  a.charge("x", 1);
  b.charge("x", 2);
  b.charge("y", 5);
  a.merge(b);
  EXPECT_EQ(a.total(), 8);
  EXPECT_EQ(a.component("x"), 3);
  a.reset();
  EXPECT_EQ(a.total(), 0);
}

TEST(Ledger, CounterHandleChargesAndSurvivesReset) {
  RoundLedger l;
  RoundLedger::Counter c = l.counter("net");
  c.charge(2);
  c.charge(3);
  EXPECT_EQ(l.component("net"), 5);
  EXPECT_EQ(l.total(), 5);
  EXPECT_THROW(c.charge(-1), CheckError);
  l.reset();
  c.charge(1);  // handle revalidates against the cleared map
  EXPECT_EQ(l.component("net"), 1);
  EXPECT_EQ(l.total(), 1);
}

TEST(Ledger, ReportMentionsComponents) {
  RoundLedger l;
  l.charge("token_dropping", 7);
  const std::string rep = l.report();
  EXPECT_NE(rep.find("token_dropping = 7"), std::string::npos);
}

TEST(Message, FieldBits) {
  EXPECT_EQ(field_bits(0), 2);  // 1 magnitude bit + sign
  EXPECT_EQ(field_bits(1), 2);
  EXPECT_EQ(field_bits(2), 3);
  EXPECT_EQ(field_bits(-1), 2);
  EXPECT_EQ(field_bits(255), 9);
}

TEST(Message, FieldBitsNegativeAndExtremes) {
  // Two's complement is asymmetric: -(2^k) fits in k+1 bits, 2^k needs k+2.
  EXPECT_EQ(field_bits(-2), 2);  // "10" in two's complement
  EXPECT_EQ(field_bits(-128), 8);
  EXPECT_EQ(field_bits(128), 9);
  EXPECT_EQ(field_bits(-129), 9);
  EXPECT_EQ(field_bits(std::numeric_limits<std::int64_t>::min()), 64);
  EXPECT_EQ(field_bits(std::numeric_limits<std::int64_t>::max()), 64);
  EXPECT_EQ(field_bits(std::numeric_limits<std::int64_t>::min() + 1), 64);
  // Symmetric pairs around zero: |v| and -(|v|+1) have equal width.
  for (const std::int64_t v : {1, 2, 3, 7, 8, 1000, 123456789}) {
    EXPECT_EQ(field_bits(v), field_bits(-v - 1)) << v;
  }
}

TEST(MessageSlab, IndexedBlocksRoundTripAndRewind) {
  MessageSlab slab;
  std::vector<std::uint32_t> idx;
  // Enough small blocks to cross several chunks; none may straddle one.
  for (std::int64_t i = 0; i < 20000; ++i) {
    idx.push_back(slab.allocate_index(3));
    std::int64_t* b = slab.at_index(idx.back());
    for (int k = 0; k < 3; ++k) b[k] = i * 3 + k;
  }
  for (std::size_t i = 0; i < idx.size(); ++i) {
    EXPECT_LE((idx[i] & (MessageSlab::kChunkFields - 1)) + 3,
              MessageSlab::kChunkFields);
    const std::int64_t* b = slab.at_index(idx[i]);
    ASSERT_EQ(b[2], static_cast<std::int64_t>(i) * 3 + 2) << i;
  }
  EXPECT_EQ(slab.used(), 60000u);
  const std::size_t bytes = slab.capacity_bytes();
  // A rewind keeps the chunks: the same traffic allocates nothing new.
  slab.reset();
  EXPECT_EQ(slab.used(), 0u);
  for (int i = 0; i < 20000; ++i) slab.allocate_index(3);
  EXPECT_EQ(slab.capacity_bytes(), bytes);
}

TEST(MessageSlab, BlockPastOneChunkGetsItsOwnChunk) {
  MessageSlab slab;
  const std::size_t wide = MessageSlab::kChunkFields + 5;
  const std::uint32_t a = slab.allocate_index(2);
  const std::uint32_t b = slab.allocate_index(wide);
  const std::uint32_t c = slab.allocate_index(2);
  // The wide block starts a chunk of its own; the next block starts after
  // it.
  EXPECT_EQ(b & (MessageSlab::kChunkFields - 1), 0u);
  EXPECT_NE(b >> MessageSlab::kChunkShift, a >> MessageSlab::kChunkShift);
  EXPECT_NE(c >> MessageSlab::kChunkShift, b >> MessageSlab::kChunkShift);
  std::int64_t* wb = slab.at_index(b);
  for (std::size_t k = 0; k < wide; ++k) wb[k] = static_cast<std::int64_t>(k);
  slab.at_index(a)[1] = -1;
  slab.at_index(c)[0] = -2;
  for (std::size_t k = 0; k < wide; ++k) {
    ASSERT_EQ(slab.at_index(b)[k], static_cast<std::int64_t>(k));
  }
  // After a rewind the retained oversized chunk serves wide blocks again.
  const std::size_t bytes = slab.capacity_bytes();
  slab.reset();
  slab.allocate_index(2);
  slab.allocate_index(wide);
  EXPECT_EQ(slab.capacity_bytes(), bytes);
  // Small blocks filling the oversized chunk must not start past the
  // offset bits of their index (that would alias an earlier block).
  slab.reset();
  std::vector<std::uint32_t> idx;
  for (std::int64_t i = 0; i < 12000; ++i) {
    idx.push_back(slab.allocate_index(3));
    for (int k = 0; k < 3; ++k) slab.at_index(idx.back())[k] = i * 3 + k;
  }
  for (std::size_t i = 0; i < idx.size(); ++i) {
    for (int k = 0; k < 3; ++k) {
      ASSERT_EQ(slab.at_index(idx[i])[k], static_cast<std::int64_t>(i) * 3 + k)
          << i;
    }
  }
}

TEST(MessageSlab, SpillIndexExhaustionThrowsActionably) {
  // The 24-bit spill index addresses 2^10 chunks. Chunks are allocated
  // without zeroing, so this costs address space, not resident memory.
  MessageSlab slab;
  for (std::size_t i = 0; i < (std::size_t{1} << 10); ++i) {
    slab.allocate_index(MessageSlab::kChunkFields);
  }
  try {
    slab.allocate_index(1);
    FAIL() << "the 2^24-field spill index space must not wrap";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("spill arena exhausted"), std::string::npos) << what;
    EXPECT_NE(what.find("shard the run further"), std::string::npos) << what;
  }
}

TEST(Message, MessageBitsAndAudit) {
  const std::int64_t m[] = {3, 500};
  CongestAudit audit;
  audit.observe(m);
  audit.observe({});  // empty = not sent
  EXPECT_EQ(audit.messages_sent(), 1);
  EXPECT_EQ(audit.max_bits(), field_bits(3) + field_bits(500));
  audit.reset();
  EXPECT_EQ(audit.max_bits(), 0);
}

TEST(Message, AuditMergeIsOrderIndependent) {
  CongestAudit a, b, merged_ab, merged_ba;
  const std::int64_t f1000[] = {1000}, f3[] = {3}, f7[] = {7};
  a.observe(f1000);
  b.observe(f3);
  b.observe(f7);
  merged_ab.merge(a);
  merged_ab.merge(b);
  merged_ba.merge(b);
  merged_ba.merge(a);
  EXPECT_EQ(merged_ab.max_bits(), merged_ba.max_bits());
  EXPECT_EQ(merged_ab.messages_sent(), merged_ba.messages_sent());
  EXPECT_EQ(merged_ab.messages_sent(), 3);
  EXPECT_EQ(merged_ab.max_bits(), field_bits(1000));
}

TEST(Network, DeliversAlongEdges) {
  const Graph g = gen::path(3);  // 0-1, 1-2
  SyncNetwork net(g);
  // Round 1: everyone sends its id on every incident edge.
  net.round_fast([](NodeId v, const Inbox& inbox, Outbox& outbox) {
    EXPECT_TRUE(std::all_of(inbox.begin(), inbox.end(),
                            [](const MessageView& m) { return m.empty(); }));
    for (auto&& m : outbox) m.assign({v});
  });
  // Round 2: check each node received exactly its neighbors' ids.
  net.round_fast([&](NodeId v, const Inbox& inbox, Outbox&) {
    const auto nb = g.neighbors(v);
    ASSERT_EQ(inbox.size(), nb.size());
    for (std::size_t i = 0; i < nb.size(); ++i) {
      ASSERT_FALSE(inbox[i].empty());
      EXPECT_EQ(inbox[i].at(0), nb[i].neighbor);
    }
  });
  EXPECT_EQ(net.rounds_executed(), 2);
}

TEST(Network, SynchronousSemantics) {
  // A message sent in round t must not be visible in round t, only in t+1.
  const Graph g = gen::path(2);
  SyncNetwork net(g);
  bool saw_in_same_round = false;
  net.round_fast([&](NodeId v, const Inbox& inbox, Outbox& outbox) {
    if (v == 0) outbox[0].assign({42});
    if (v == 1 && !inbox[0].empty()) saw_in_same_round = true;
  });
  EXPECT_FALSE(saw_in_same_round);
  bool saw_next_round = false;
  net.round_fast([&](NodeId v, const Inbox& inbox, Outbox&) {
    if (v == 1 && !inbox[0].empty() && inbox[0].at(0) == 42) {
      saw_next_round = true;
    }
  });
  EXPECT_TRUE(saw_next_round);
}

TEST(Network, MessagesDoNotPersist) {
  const Graph g = gen::path(2);
  SyncNetwork net(g);
  net.round_fast([](NodeId v, const Inbox&, Outbox& out) {
    if (v == 0) out[0].assign({1});
  });
  net.round_fast([](NodeId, const Inbox&, Outbox&) {});
  // The round-1 message must be gone by round 3.
  net.round_fast([&](NodeId v, const Inbox& inbox, Outbox&) {
    if (v == 1) {
      EXPECT_TRUE(inbox[0].empty());
    }
  });
}

TEST(Network, SpilledMessagesDeliverIntact) {
  // Payloads wider than the inline field take the slab-arena path; they
  // must round-trip bit-exact and must not leak into later rounds.
  const Graph g = gen::star(4);
  const std::size_t wide = 12;
  SyncNetwork net(g, nullptr, "network", 1,
                  SlotPlan{.max_fields = static_cast<int>(wide)});
  net.round_fast([&](NodeId v, const Inbox&, Outbox& out) {
    if (v == 0) {
      for (std::size_t i = 0; i < out.size(); ++i) {
        auto m = out[i];
        for (std::size_t k = 0; k < wide; ++k) {
          m.push(static_cast<std::int64_t>(100 * (i + 1) + k));
        }
      }
    }
  });
  net.round_fast([&](NodeId v, const Inbox& inbox, Outbox&) {
    if (v != 0) {
      ASSERT_EQ(inbox.size(), 1u);
      const auto m = inbox[0];
      ASSERT_EQ(m.size(), wide);
      for (std::size_t k = 0; k < wide; ++k) {
        EXPECT_EQ(m.at(k), static_cast<std::int64_t>(100 * v + k));
      }
    }
  });
  net.round_fast([&](NodeId v, const Inbox& inbox, Outbox&) {
    if (v != 0) EXPECT_TRUE(inbox[0].empty());
  });
}

TEST(Network, ChargesLedger) {
  const Graph g = gen::cycle(4);
  RoundLedger l;
  SyncNetwork net(g, &l, "mycomp");
  net.round_fast([](NodeId, const Inbox&, Outbox&) {});
  net.round_fast([](NodeId, const Inbox&, Outbox&) {});
  EXPECT_EQ(l.component("mycomp"), 2);
}

TEST(Network, AuditTracksMaxBits) {
  const Graph g = gen::path(2);
  SyncNetwork net(g);
  net.round_fast([](NodeId v, const Inbox&, Outbox& out) {
    if (v == 0) out[0].assign({1023});
  });
  EXPECT_EQ(net.audit().max_bits(), field_bits(1023));
  EXPECT_EQ(net.audit().messages_sent(), 1);
}

TEST(Network, PerEdgeChannelsAreIndependent) {
  const Graph g = gen::star(3);  // center 0
  SyncNetwork net(g);
  net.round_fast([&](NodeId v, const Inbox&, Outbox& out) {
    if (v == 0) {
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i].assign({static_cast<std::int64_t>(100 + i)});
      }
    }
  });
  net.round_fast([&](NodeId v, const Inbox& inbox, Outbox&) {
    if (v != 0) {
      ASSERT_EQ(inbox.size(), 1u);
      ASSERT_FALSE(inbox[0].empty());
      // Leaf v is the (v-1)-th neighbor of the center (sorted by id).
      EXPECT_EQ(inbox[0].at(0), 100 + (v - 1));
    }
  });
}

// Every slot's peer maps back to it, a slot is never its own peer, and the
// two slots of a pair carry the same edge id with opposite owners.
void check_peer_pairing(const Graph& g) {
  SyncNetwork net(g);
  ASSERT_EQ(net.num_slots(), static_cast<std::size_t>(2 * g.num_edges()));
  std::vector<EdgeId> slot_edge(net.num_slots());
  std::vector<NodeId> slot_owner(net.num_slots());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nb = g.neighbors(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      slot_edge[net.slot(v, i)] = nb[i].edge;
      slot_owner[net.slot(v, i)] = v;
    }
  }
  for (std::size_t s = 0; s < net.num_slots(); ++s) {
    const std::size_t p = net.peer_slot(s);
    ASSERT_LT(p, net.num_slots());
    EXPECT_NE(p, s);
    EXPECT_EQ(net.peer_slot(p), s);                // involution
    EXPECT_EQ(slot_edge[p], slot_edge[s]);         // one edge, two slots
    EXPECT_EQ(slot_owner[p],                       // peer owned by the
              g.other_endpoint(slot_edge[s],       // opposite endpoint
                               slot_owner[s]));
  }
}

TEST(Network, PeerSlotPairingRandom) {
  Rng rng(11);
  check_peer_pairing(gen::random_regular(64, 6, rng));
  check_peer_pairing(gen::gnp(50, 0.2, rng));
}

TEST(Network, PeerSlotPairingGrid) { check_peer_pairing(gen::grid(7, 9)); }

TEST(Network, PeerSlotPairingStar) { check_peer_pairing(gen::star(17)); }

// Run the same deterministic node program on the serial and parallel
// engines; states, audits, and round counts must match bit-for-bit.
void check_engine_equivalence(const Graph& g) {
  auto run = [&](int threads) {
    SyncNetwork net(g, nullptr, "net", threads, SlotPlan{.max_fields = 2});
    std::vector<std::int64_t> state(static_cast<std::size_t>(g.num_nodes()));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      state[static_cast<std::size_t>(v)] = v;
    }
    for (int r = 0; r < 5; ++r) {
      std::vector<std::int64_t> next(state);
      net.round_fast([&](NodeId v, const Inbox& inbox, Outbox& out) {
        std::int64_t acc = state[static_cast<std::size_t>(v)];
        for (const auto& m : inbox) {
          if (!m.empty()) acc += m.at(0) * 31 + m.size();
        }
        next[static_cast<std::size_t>(v)] = acc;
        // Odd nodes stay silent every other round to exercise stale slots.
        if (v % 2 == 0 || r % 2 == 0) {
          for (auto&& m : out) m.assign({acc, v});
        }
      });
      state = std::move(next);
    }
    return std::tuple(state, net.audit().max_bits(),
                      net.audit().messages_sent(), net.rounds_executed());
  };
  const auto serial = run(1);
  const auto par4 = run(4);
  EXPECT_EQ(serial, par4);
  const auto par3 = run(3);
  EXPECT_EQ(serial, par3);
}

TEST(ParallelNetwork, MatchesSerialOnRandomRegular) {
  Rng rng(21);
  check_engine_equivalence(gen::random_regular(200, 8, rng));
}

TEST(ParallelNetwork, MatchesSerialOnGrid) {
  check_engine_equivalence(gen::grid(12, 17));
}

TEST(ParallelNetwork, MatchesSerialOnStar) {
  // Star is the worst case for slot balancing: one node owns half the slots.
  check_engine_equivalence(gen::star(101));
}

TEST(ParallelNetwork, LinialColoringIsBitIdentical) {
  Rng rng(31);
  const Graph g = gen::random_regular(300, 10, rng);
  const LinialResult serial = linial_color(g);
  const LinialResult parallel = linial_color(g, nullptr, {}, 0, 4);
  EXPECT_EQ(serial.colors, parallel.colors);
  EXPECT_EQ(serial.palette, parallel.palette);
  EXPECT_EQ(serial.rounds, parallel.rounds);
  EXPECT_EQ(serial.max_message_bits, parallel.max_message_bits);
}

TEST(ParallelNetwork, PropagatesNodeProgramExceptions) {
  const Graph g = gen::cycle(8);
  SyncNetwork net(g, nullptr, "net", 4);
  EXPECT_THROW(net.round_fast([](NodeId v, const Inbox&, Outbox&) {
                 DEC_CHECK(v != 5, "boom from a pool worker");
               }),
               CheckError);
}

// A throwing round must roll back completely: no phantom audit entries or
// round charges. A round that throws before any write leaves last round's
// delivery intact. One that wrote has overwritten some of that delivery in
// place, so the network refuses further rounds until reset(), after which
// delivery works as on a fresh network.
void check_abort_recovery(int threads) {
  const Graph g = gen::cycle(8);
  SyncNetwork net(g, nullptr, "net", threads);
  net.round_fast([](NodeId v, const Inbox&, Outbox& out) {
    for (auto&& m : out) m.assign({v + 100});
  });
  EXPECT_THROW(net.round_fast([](NodeId v, const Inbox&, Outbox&) {
                 DEC_CHECK(v < 4, "boom before writing");
               }),
               CheckError);
  EXPECT_EQ(net.rounds_executed(), 1);
  EXPECT_EQ(net.audit().messages_sent(), 16);  // only the successful round
  net.round_fast([&](NodeId v, const Inbox& inbox, Outbox& out) {
    for (std::size_t i = 0; i < inbox.size(); ++i) {
      ASSERT_FALSE(inbox[i].empty());
      EXPECT_EQ(inbox[i].at(0), g.neighbors(v)[i].neighbor + 100);
    }
    for (auto&& m : out) m.assign({v + 300});
  });
  EXPECT_THROW(net.round_fast([](NodeId v, const Inbox&, Outbox& out) {
                 for (auto&& m : out) m.assign({v + 200});
                 DEC_CHECK(v < 4, "boom mid-round");
               }),
               CheckError);
  EXPECT_EQ(net.rounds_executed(), 2);
  EXPECT_EQ(net.audit().messages_sent(), 32);
  EXPECT_THROW(net.round_fast([](NodeId, const Inbox&, Outbox&) {}),
               CheckError);
  EXPECT_EQ(net.rounds_executed(), 2);
  net.reset();
  EXPECT_EQ(net.audit().messages_sent(), 0);
  net.round_fast([](NodeId v, const Inbox& inbox, Outbox& out) {
    for (const auto& m : inbox) EXPECT_TRUE(m.empty());
    for (auto&& m : out) m.assign({v + 400});
  });
  net.round_fast([&](NodeId v, const Inbox& inbox, Outbox&) {
    for (std::size_t i = 0; i < inbox.size(); ++i) {
      ASSERT_FALSE(inbox[i].empty());
      EXPECT_EQ(inbox[i].at(0), g.neighbors(v)[i].neighbor + 400);
    }
  });
  EXPECT_EQ(net.audit().messages_sent(), 16);
}

TEST(Network, AbortedRoundRollsBackSerial) { check_abort_recovery(1); }

TEST(ParallelNetwork, AbortedRoundRollsBackParallel) {
  check_abort_recovery(4);
}

// Stronger than per-engine recovery: after an identical scripted history —
// including a round that throws mid-flight with multi-field (slab-spilled)
// partial writes, which poisons the network until reset() — the serial and
// parallel engines must be in bit-identical states: same delivered payloads
// afterwards, same audit, same round count.
void run_abort_script(SyncNetwork& net, const Graph& g,
                      std::vector<std::int64_t>* delivered,
                      std::int64_t* audit_msgs, int* audit_bits) {
  const std::size_t wide = 8;
  net.round_fast([&](NodeId v, const Inbox&, Outbox& out) {
    for (auto&& m : out) m.assign({v * 3 + 1});
  });
  EXPECT_THROW(net.round_fast([&](NodeId v, const Inbox&, Outbox& out) {
                 for (auto&& m : out) {
                   for (std::size_t i = 0; i < wide; ++i) m.push(v + 1000);
                 }
                 DEC_CHECK(v < g.num_nodes() / 2, "boom mid-round");
               }),
               CheckError);
  // The aborted round overwrote round 0's deliveries in place.
  EXPECT_THROW(net.round_fast([](NodeId, const Inbox&, Outbox&) {}),
               CheckError);
  net.reset();
  net.round_fast([&](NodeId v, const Inbox& in, Outbox& out) {
    std::int64_t acc = 0;
    for (const auto& m : in) {
      acc = acc * 31 + (m.empty() ? -1 : m.at(0));
    }
    if (v % 2 == 0) {
      for (auto&& m : out) m.assign({acc, v});
    }
  });
  // Collect into per-node slots (the network's own slot plane gives the
  // indexing): the reading round runs sharded, so each node may only write
  // its own slice of the output.
  delivered->assign(net.num_slots(), 0);
  net.round_fast([&](NodeId v, const Inbox& in, Outbox&) {
    for (std::size_t i = 0; i < in.size(); ++i) {
      (*delivered)[net.slot(v, i)] = in[i].empty() ? -7 : in[i].at(0);
    }
  });
  *audit_msgs = net.audit().messages_sent();
  *audit_bits = net.audit().max_bits();
}

TEST(ParallelNetwork, AbortRollbackMatchesSerialEngine) {
  Rng rng(41);
  const Graph g = gen::random_regular(120, 6, rng);
  std::vector<std::int64_t> serial_d, parallel_d;
  std::int64_t serial_msgs = 0, parallel_msgs = 0;
  int serial_bits = 0, parallel_bits = 0;
  const SlotPlan plan{.max_fields = 8};
  SyncNetwork serial(g, nullptr, "network", 1, plan);
  run_abort_script(serial, g, &serial_d, &serial_msgs, &serial_bits);
  SyncNetwork parallel(g, nullptr, "network", 4, plan);
  run_abort_script(parallel, g, &parallel_d, &parallel_msgs, &parallel_bits);
  EXPECT_EQ(serial_d, parallel_d);
  EXPECT_EQ(serial_msgs, parallel_msgs);
  EXPECT_EQ(serial_bits, parallel_bits);
  EXPECT_EQ(serial.rounds_executed(), parallel.rounds_executed());
  // Since the reset: the acc round and the reading round. The aborted and
  // the refused rounds never counted.
  EXPECT_EQ(serial.rounds_executed(), 2);
}

// --- Mail summary (Inbox::any()) -------------------------------------------

// What node `u` does on edge `e` in round `r` of a scripted sparse history:
// 0 nothing, 1 one field, 2 a multi-field payload (slab spill), 3 write
// then clear() (the slot is touched but reads empty). About 6% of edge
// directions act per round, so most nodes get no mail — and no shard sends
// more messages than it has nodes, which keeps every round below the dense
// mark and any() exact.
int mail_action(std::uint64_t seed, int r, NodeId u, EdgeId e) {
  std::uint64_t x = seed ^ (static_cast<std::uint64_t>(r) << 40) ^
                    (static_cast<std::uint64_t>(u) << 20) ^
                    static_cast<std::uint64_t>(e);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  const std::uint64_t roll = x % 100;
  return roll < 3 ? 1 : roll < 5 ? 2 : roll < 6 ? 3 : 0;
}

constexpr std::size_t kSpillFields = 6;  // past the inline field

// One scripted round: every node first audits its inbox against round r - 1
// of the script (any() must equal "some neighbor touched my slot", and a
// quiet node must read every entry empty), then acts per round r. Counts
// violations per node — each node writes only its own counter.
void mail_round(SyncNetwork& net, const Graph& g, std::uint64_t seed, int r,
                std::vector<int>* bad, std::int64_t* quiet) {
  std::vector<char> quiet_v(static_cast<std::size_t>(g.num_nodes()), 0);
  net.round_fast([&](NodeId v, const auto& in, auto&& out) {
    const auto nb = g.neighbors(v);
    int& b = (*bad)[static_cast<std::size_t>(v)];
    bool touched = false;
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const int a = r == 0 ? 0 : mail_action(seed, r - 1, nb[i].neighbor,
                                             nb[i].edge);
      touched = touched || a != 0;
      const std::size_t want = a == 1 ? 1 : a == 2 ? kSpillFields : 0;
      if (in[i].size() != want) ++b;
      if (want > 0 && in[i].at(want - 1) != nb[i].neighbor) ++b;
      if (!in.any() && !in[i].empty()) ++b;  // soundness
    }
    if (in.any() != touched) ++b;
    quiet_v[static_cast<std::size_t>(v)] = in.any() ? 0 : 1;
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const int a = mail_action(seed, r, v, nb[i].edge);
      if (a == 0) continue;
      auto&& m = out[i];
      if (a == 1) m.assign({v});
      if (a == 2) {
        for (std::size_t k = 0; k < kSpillFields; ++k) m.push(v);
      }
      if (a == 3) {
        m.assign({v});
        m.clear();
      }
    }
  });
  *quiet += std::count(quiet_v.begin(), quiet_v.end(), 1);
}

constexpr SlotPlan kMailPlan{.max_fields = static_cast<int>(kSpillFields)};

TEST(MailSummary, SoundUnderRandomSparseSends) {
  Rng rng(51);
  const Graph g = gen::random_regular(300, 8, rng);
  for (const int threads : {1, 2, 4}) {
    SyncNetwork net(g, nullptr, "mail", threads, kMailPlan);
    std::vector<int> bad(static_cast<std::size_t>(g.num_nodes()), 0);
    std::int64_t quiet = 0;
    // Seven rounds: both epoch parities and both slot-ownership parities
    // several times over, starting from the fresh state.
    for (int r = 0; r < 7; ++r) mail_round(net, g, 7, r, &bad, &quiet);
    EXPECT_EQ(std::count(bad.begin(), bad.end(), 0), g.num_nodes())
        << "threads " << threads;
    // The summary must actually gate work, not read `true` everywhere.
    EXPECT_GT(quiet, 2 * g.num_nodes());
  }
}

TEST(MailSummary, FirstRoundAfterResetAndRebindIsQuiet) {
  Rng rng(52);
  const Graph small = gen::random_regular(40, 4, rng);
  const Graph large = gen::random_regular(120, 6, rng);
  for (const int threads : {1, 4}) {
    SyncNetwork net(small, nullptr, "mail", threads, kMailPlan);
    std::vector<int> bad(static_cast<std::size_t>(large.num_nodes()), 0);
    std::int64_t quiet = 0;
    for (int r = 0; r < 3; ++r) mail_round(net, small, 9, r, &bad, &quiet);
    net.reset();
    // Script round 0 expects an empty inbox everywhere.
    for (int r = 0; r < 3; ++r) mail_round(net, small, 11, r, &bad, &quiet);
    net.rebind(large, NetworkTopology::plan(large, threads), nullptr,
               "mail", kMailPlan);
    for (int r = 0; r < 3; ++r) mail_round(net, large, 13, r, &bad, &quiet);
    EXPECT_EQ(std::count(bad.begin(), bad.end(), 0), large.num_nodes());
  }
}

TEST(MailSummary, AbortedRoundLeavesNoPhantomMail) {
  Rng rng(53);
  const Graph g = gen::random_regular(120, 6, rng);
  for (const int threads : {1, 2, 4}) {
    SyncNetwork net(g, nullptr, "mail", threads, kMailPlan);
    std::vector<int> bad(static_cast<std::size_t>(g.num_nodes()), 0);
    std::int64_t quiet = 0;
    mail_round(net, g, 17, 0, &bad, &quiet);
    // Every node writes every slot, then half the nodes throw. The writes
    // overwrote round 0's deliveries, so the network refuses to go on.
    EXPECT_THROW(net.round_fast([&](NodeId v, const auto&, auto&& out) {
                   for (auto&& m : out) m.assign({-1});
                   DEC_CHECK(v < g.num_nodes() / 2, "boom mid-round");
                 }),
                 CheckError);
    EXPECT_THROW(net.round_fast([](NodeId, const auto&, auto&&) {}),
                 CheckError);
    // After the reset the first round reads quiet everywhere: the aborted
    // all-send's mail tags were zeroed, not left to alias the new epochs.
    net.reset();
    for (int r = 0; r < 3; ++r) mail_round(net, g, 19, r, &bad, &quiet);
    EXPECT_EQ(std::count(bad.begin(), bad.end(), 0), g.num_nodes())
        << "threads " << threads;
  }
}

TEST(MailSummary, DenseRoundReportsMailEverywhereThenClears) {
  // A shard that sends more messages than it has nodes marks the round
  // dense instead of stamping receivers: the next round reports mail at
  // every node (sound, if imprecise), and the round after that is exact
  // again.
  Rng rng(54);
  const Graph g = gen::random_regular(120, 6, rng);
  for (const int threads : {1, 2, 4}) {
    SyncNetwork net(g, nullptr, "mail", threads, kMailPlan);
    std::vector<char> any(static_cast<std::size_t>(g.num_nodes()), 0);
    const auto record = [&](bool send_all) {
      net.round_fast([&](NodeId v, const auto& in, auto&& out) {
        any[static_cast<std::size_t>(v)] = in.any() ? 1 : 0;
        if (send_all) {
          for (auto&& m : out) m.assign({v});
        }
      });
    };
    record(true);
    record(false);
    EXPECT_EQ(std::count(any.begin(), any.end(), 1), g.num_nodes());
    record(false);
    EXPECT_EQ(std::count(any.begin(), any.end(), 0), g.num_nodes());
  }
}

TEST(MailSummary, IsolatedNodesAndEmptyGraph) {
  // Isolated nodes never receive, so they always read quiet.
  GraphBuilder b(6);
  b.add_edge(1, 2);
  const Graph g = std::move(b).build();
  SyncNetwork net(g, nullptr, "mail", 2, kMailPlan);
  for (int r = 0; r < 3; ++r) {
    std::vector<char> any(6, 0);
    net.round_fast([&](NodeId v, const auto& in, auto&& out) {
      any[static_cast<std::size_t>(v)] = in.any() ? 1 : 0;
      for (auto&& m : out) m.assign({v});
    });
    EXPECT_EQ(any, (std::vector<char>{0, r > 0, r > 0, 0, 0, 0}));
  }
  const Graph empty = gen::empty(0);
  SyncNetwork none(empty, nullptr, "mail", 1, kMailPlan);
  int calls = 0;
  none.round_fast([&](NodeId, const auto&, auto&&) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(none.rounds_executed(), 1);
}

TEST(MailSummary, MemoryBytesCountsTags) {
  const Graph g = gen::cycle(100);
  SyncNetwork net(g, nullptr, "mail", 1, SlotPlan{.max_fields = 1});
  // Two 4 B tags per node on top of the 16 B/slot plane (2 slots/node).
  EXPECT_GE(net.memory_bytes(),
            100 * (2 * sizeof(NarrowSlot) + 2 * sizeof(std::uint32_t)));
}

// ---------------------------------------------------------------------------
// Active rounds: round_fast(prog, wake) visits wake ∪ last round's receivers.

// Nodes that act on any incident edge in round r of the mail script.
std::vector<char> script_senders(const Graph& g, std::uint64_t seed, int r) {
  std::vector<char> out(static_cast<std::size_t>(g.num_nodes()), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const auto& inc : g.neighbors(v)) {
      if (mail_action(seed, r, v, inc.edge) != 0) {
        out[static_cast<std::size_t>(v)] = 1;
      }
    }
  }
  return out;
}

// Nodes some neighbor acted towards in round r - 1 (touch-then-clear
// included: the stamp is conservative), i.e. round r's receivers.
std::vector<char> script_receivers(const Graph& g, std::uint64_t seed,
                                   int r) {
  std::vector<char> out(static_cast<std::size_t>(g.num_nodes()), 0);
  if (r == 0) return out;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const auto& inc : g.neighbors(v)) {
      if (mail_action(seed, r - 1, inc.neighbor, inc.edge) != 0) {
        out[static_cast<std::size_t>(v)] = 1;
      }
    }
  }
  return out;
}

enum class WakePolicy {
  kSenders,     // wake every sender of the round (overlaps receivers)
  kMinimal,     // wake only senders that are not receivers
  kDuplicates,  // senders reversed, then again, plus some receivers
};

// One script round as an active round. Visits are counted per node and
// must be exactly wake ∪ receivers; inboxes are audited as in mail_round.
void active_mail_round(SyncNetwork& net, const Graph& g, std::uint64_t seed,
                       int r, WakePolicy policy, std::vector<int>* bad) {
  const std::vector<char> senders = script_senders(g, seed, r);
  const std::vector<char> receivers = script_receivers(g, seed, r);
  std::vector<NodeId> wake;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::size_t i = static_cast<std::size_t>(v);
    if (senders[i] && (policy != WakePolicy::kMinimal || !receivers[i])) {
      wake.push_back(v);
    }
  }
  if (policy == WakePolicy::kDuplicates) {
    std::vector<NodeId> dup(wake.rbegin(), wake.rend());
    dup.insert(dup.end(), wake.begin(), wake.end());
    for (NodeId v = 0; v < g.num_nodes(); v += 7) {
      if (receivers[static_cast<std::size_t>(v)]) dup.push_back(v);
    }
    wake = std::move(dup);
  }
  std::vector<char> expected = receivers;
  for (const NodeId v : wake) expected[static_cast<std::size_t>(v)] = 1;
  std::vector<int> visits(static_cast<std::size_t>(g.num_nodes()), 0);
  net.round_fast(
      [&](NodeId v, const auto& in, auto&& out) {
        ++visits[static_cast<std::size_t>(v)];
        const auto nb = g.neighbors(v);
        int& b = (*bad)[static_cast<std::size_t>(v)];
        bool touched = false;
        for (std::size_t i = 0; i < nb.size(); ++i) {
          const int a = r == 0 ? 0 : mail_action(seed, r - 1, nb[i].neighbor,
                                                 nb[i].edge);
          touched = touched || a != 0;
          const std::size_t want = a == 1 ? 1 : a == 2 ? kSpillFields : 0;
          if (in[i].size() != want) ++b;
          if (want > 0 && in[i].at(want - 1) != nb[i].neighbor) ++b;
        }
        if (in.any() != touched) ++b;
        for (std::size_t i = 0; i < nb.size(); ++i) {
          const int a = mail_action(seed, r, v, nb[i].edge);
          if (a == 0) continue;
          auto&& m = out[i];
          if (a == 1) m.assign({v});
          if (a == 2) {
            for (std::size_t k = 0; k < kSpillFields; ++k) m.push(v);
          }
          if (a == 3) {
            m.assign({v});
            m.clear();
          }
        }
      },
      wake);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::size_t i = static_cast<std::size_t>(v);
    if (visits[i] != expected[i]) ++(*bad)[i];
  }
}

struct RunSummary {
  std::int64_t rounds, messages, ledger;
  int max_bits;
  bool operator==(const RunSummary&) const = default;
};

RunSummary summarize(const SyncNetwork& net, const RoundLedger& ledger) {
  return {net.rounds_executed(), net.audit().messages_sent(),
          ledger.total(), net.audit().max_bits()};
}

TEST(ActiveRound, VisitsWakeUnionReceiversBitIdenticalToFullVisit) {
  Rng rng(61);
  const Graph g = gen::random_regular(300, 8, rng);
  for (const int threads : {1, 2, 4}) {
    for (const WakePolicy policy : {WakePolicy::kSenders,
                                    WakePolicy::kMinimal,
                                    WakePolicy::kDuplicates}) {
      RoundLedger full_ledger, active_ledger;
      SyncNetwork full(g, &full_ledger, "mail", threads, kMailPlan);
      SyncNetwork active(g, &active_ledger, "mail", threads, kMailPlan);
      std::vector<int> bad(static_cast<std::size_t>(g.num_nodes()), 0);
      std::int64_t quiet = 0;
      for (int r = 0; r < 7; ++r) {
        mail_round(full, g, 23, r, &bad, &quiet);
        active_mail_round(active, g, 23, r, policy, &bad);
      }
      EXPECT_EQ(std::count(bad.begin(), bad.end(), 0), g.num_nodes())
          << "threads " << threads
          << " policy " << static_cast<int>(policy);
      EXPECT_EQ(summarize(full, full_ledger),
                summarize(active, active_ledger));
    }
  }
}

TEST(ActiveRound, DensePreviousRoundFallsBackToFullVisit) {
  Rng rng(62);
  const Graph g = gen::random_regular(120, 6, rng);
  for (const int threads : {1, 2, 4}) {
    SyncNetwork net(g, nullptr, "mail", threads, kMailPlan);
    std::vector<int> visits(static_cast<std::size_t>(g.num_nodes()), 0);
    const auto count = [&](NodeId v, const auto&, auto&&) {
      ++visits[static_cast<std::size_t>(v)];
    };
    // An all-send round goes dense: no receiver lists were kept, so the
    // next active round must visit every node even with nothing awake.
    net.round_fast([](NodeId v, const auto&, auto&& out) {
      for (auto&& m : out) m.assign({v});
    });
    net.round_fast(count, std::span<const NodeId>{});
    EXPECT_EQ(std::count(visits.begin(), visits.end(), 1), g.num_nodes());
    // That round sent nothing, so the one after it visits nobody.
    net.round_fast(count, std::span<const NodeId>{});
    EXPECT_EQ(std::count(visits.begin(), visits.end(), 1), g.num_nodes());
    EXPECT_EQ(net.rounds_executed(), 3);
  }
}

// Spilled payloads written by one shard and read by another. Active rounds
// run every shard on the caller thread, and each node must still run under
// its owning shard's write slab, or narrow spill resolution reads another
// shard's arena.
TEST(ActiveRound, SpilledPayloadsCrossShardsOnCallerThread) {
  Rng rng(63);
  const Graph g = gen::random_regular(1200, 4, rng);
  const std::size_t n = static_cast<std::size_t>(g.num_nodes());
  const auto payload = [](NodeId v, std::size_t k) {
    return static_cast<std::int64_t>(v) * 16 + static_cast<std::int64_t>(k);
  };
  const auto send_spilled = [&](NodeId v, auto&& m) {
    for (std::size_t k = 0; k < kSpillFields; ++k) m.push(payload(v, k));
  };
  for (const int threads : {1, 2, 4}) {
    SyncNetwork net(g, nullptr, "spill", threads, kMailPlan);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<int> bad(n, 0);
    std::vector<char> visited(n, 0), off_caller(n, 0), sent(n, 0);
    // One active round with nothing woken: every visited node checks the
    // payloads of last round's senders (`sent` on entry) and, when
    // `reply(v)`, answers on all its edges. Returns the visit count.
    const auto active_round = [&](const auto& from, const auto& reply) {
      std::fill(visited.begin(), visited.end(), 0);
      std::fill(off_caller.begin(), off_caller.end(), 0);
      std::vector<char> next(n, 0);
      net.round_fast(
          [&](NodeId v, const auto& in, auto&& out) {
            const std::size_t vi = static_cast<std::size_t>(v);
            visited[vi] = 1;
            off_caller[vi] = std::this_thread::get_id() != caller;
            const auto nb = g.neighbors(v);
            bool any = false;
            for (std::size_t i = 0; i < nb.size(); ++i) {
              const NodeId u = nb[i].neighbor;
              const bool got = from(u, v);
              any = any || got;
              if (in[i].size() != (got ? kSpillFields : 0)) {
                ++bad[vi];
                continue;
              }
              for (std::size_t k = 0; k < in[i].size(); ++k) {
                if (in[i].at(k) != payload(u, k)) ++bad[vi];
              }
            }
            if (!any) ++bad[vi];  // visited without mail or a wake
            if (reply(v)) {
              next[vi] = 1;
              for (auto&& m : out) send_spilled(v, m);
            }
          },
          std::span<const NodeId>{});
      sent = std::move(next);
      return std::count(visited.begin(), visited.end(), 1);
    };
    const auto from_sent = [&](NodeId u, NodeId) {
      return sent[static_cast<std::size_t>(u)] != 0;
    };
    // Round 0 (full visit): every node sends a spilled payload to its
    // first neighbor only — one message per node, so no shard goes dense.
    net.round_fast([&](NodeId v, const auto&, auto&& out) {
      send_spilled(v, out[0]);
    });
    // Round 1: about half of the nodes are somebody's first neighbor;
    // every 10th receiver answers.
    const auto n1 = active_round(
        [&](NodeId u, NodeId v) { return g.neighbors(u)[0].neighbor == v; },
        [](NodeId v) { return v % 10 == 0; });
    EXPECT_GT(n1, g.num_nodes() / 3);
    EXPECT_EQ(std::count(off_caller.begin(), off_caller.end(), 1), 0);
    // Round 2: the answers' receivers, and every one of them writes
    // spilled payloads to neighbors in other shards.
    const auto n2 = active_round(from_sent, [](NodeId) { return true; });
    EXPECT_GT(n2, 100);
    EXPECT_EQ(std::count(off_caller.begin(), off_caller.end(), 1), 0);
    // Round 3 reads what round 2's nodes wrote.
    const auto n3 = active_round(from_sent, [](NodeId) { return false; });
    EXPECT_GT(n3, n2);
    EXPECT_EQ(std::count(off_caller.begin(), off_caller.end(), 1), 0);
    EXPECT_EQ(std::count(bad.begin(), bad.end(), 0), g.num_nodes())
        << "threads " << threads;
  }
}

TEST(ActiveRound, FirstRoundAfterResetAndRebindVisitsOnlyWake) {
  Rng rng(64);
  const Graph small = gen::random_regular(40, 4, rng);
  const Graph large = gen::random_regular(120, 6, rng);
  for (const int threads : {1, 2, 4}) {
    SyncNetwork net(small, nullptr, "mail", threads, kMailPlan);
    std::vector<int> bad(static_cast<std::size_t>(large.num_nodes()), 0);
    for (int r = 0; r < 3; ++r) {
      active_mail_round(net, small, 29, r, WakePolicy::kMinimal, &bad);
    }
    // Round 2 sent mail, but the reset discards it: script round 0
    // expects no receivers, and the visit check catches any leftover.
    net.reset();
    for (int r = 0; r < 3; ++r) {
      active_mail_round(net, small, 31, r, WakePolicy::kMinimal, &bad);
    }
    net.rebind(large, NetworkTopology::plan(large, threads), nullptr,
               "mail", kMailPlan);
    for (int r = 0; r < 3; ++r) {
      active_mail_round(net, large, 37, r, WakePolicy::kDuplicates, &bad);
    }
    EXPECT_EQ(std::count(bad.begin(), bad.end(), 0), large.num_nodes())
        << "threads " << threads;
  }
}

TEST(ActiveRound, AbortedRoundReexecutesWithTheSameVisitSet) {
  Rng rng(65);
  const Graph g = gen::random_regular(120, 6, rng);
  for (const int threads : {1, 2, 4}) {
    SyncNetwork net(g, nullptr, "mail", threads, kMailPlan);
    std::vector<int> bad(static_cast<std::size_t>(g.num_nodes()), 0);
    active_mail_round(net, g, 41, 0, WakePolicy::kSenders, &bad);
    // Script round 1's visit set, aborted before any node writes (a
    // mid-round write would poison the network until reset()).
    const std::vector<char> senders = script_senders(g, 41, 1);
    std::vector<NodeId> wake;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (senders[static_cast<std::size_t>(v)]) wake.push_back(v);
    }
    EXPECT_THROW(net.round_fast(
                     [&](NodeId v, const auto&, auto&&) {
                       DEC_CHECK(v < 0, "boom mid-round");
                     },
                     wake),
                 CheckError);
    EXPECT_EQ(net.rounds_executed(), 1);
    // Re-executing round 1 must visit exactly wake ∪ round 0's receivers
    // and deliver round 0's payloads, then round 2 runs on as usual.
    for (int r = 1; r < 3; ++r) {
      active_mail_round(net, g, 41, r, WakePolicy::kSenders, &bad);
    }
    EXPECT_EQ(std::count(bad.begin(), bad.end(), 0), g.num_nodes())
        << "threads " << threads;
  }
}

TEST(ActiveRound, IsolatedNodesEmptyGraphAndEmptyUnion) {
  GraphBuilder b(6);
  b.add_edge(1, 2);
  const Graph g = std::move(b).build();
  const Graph empty = gen::empty(0);
  for (const int threads : {1, 2, 4}) {
    RoundLedger ledger;
    SyncNetwork net(g, &ledger, "active", threads, kMailPlan);
    std::vector<int> visits(6, 0);
    const auto send_all = [&](NodeId v, const auto&, auto&& out) {
      ++visits[static_cast<std::size_t>(v)];
      for (auto&& m : out) m.assign({v});
    };
    // Isolated node 4 and edge endpoint 1 woken: 1 sends to 2.
    const std::vector<NodeId> wake = {4, 1, 4};
    net.round_fast(send_all, wake);
    EXPECT_EQ(visits, (std::vector<int>{0, 1, 0, 0, 1, 0}));
    // Nothing woken: only 2 (1's receiver) runs, and answers.
    net.round_fast(send_all, std::span<const NodeId>{});
    EXPECT_EQ(visits, (std::vector<int>{0, 1, 1, 0, 1, 0}));
    // Only 1 received; it stays silent, so the next union is empty.
    net.round_fast([&](NodeId v, const auto&, auto&&) {
      ++visits[static_cast<std::size_t>(v)];
    }, std::span<const NodeId>{});
    EXPECT_EQ(visits, (std::vector<int>{0, 2, 1, 0, 1, 0}));
    // An empty union still charges exactly one round and sends nothing.
    const std::int64_t msgs = net.audit().messages_sent();
    net.round_fast(send_all, std::span<const NodeId>{});
    EXPECT_EQ(visits, (std::vector<int>{0, 2, 1, 0, 1, 0}));
    EXPECT_EQ(net.rounds_executed(), 4);
    EXPECT_EQ(ledger.component("active"), 4);
    EXPECT_EQ(net.audit().messages_sent(), msgs);
    // Out-of-range wake entries are rejected, not dereferenced.
    const std::vector<NodeId> bogus = {6};
    EXPECT_THROW(net.round_fast(send_all, bogus), CheckError);
    EXPECT_EQ(net.rounds_executed(), 4);

    RoundLedger empty_ledger;
    SyncNetwork none(empty, &empty_ledger, "active", threads, kMailPlan);
    int calls = 0;
    none.round_fast([&](NodeId, const auto&, auto&&) { ++calls; },
                    std::span<const NodeId>{});
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(none.rounds_executed(), 1);
    EXPECT_EQ(empty_ledger.component("active"), 1);
  }
}

TEST(ActiveRound, MemoryBytesCountsVisitState) {
  const Graph g = gen::cycle(100);
  SyncNetwork net(g, nullptr, "mail", 1, SlotPlan{.max_fields = 1});
  // Two mail tags and one visit tag per node on top of the plane.
  EXPECT_GE(net.memory_bytes(),
            100 * (2 * sizeof(NarrowSlot) + 3 * sizeof(std::uint32_t)));
  const std::size_t before = net.memory_bytes();
  // A sparse round grows the receiver list; the next active round grows
  // the visit list. Both are counted.
  net.round_fast([](NodeId v, const auto&, auto&& out) {
    if (v % 2 == 0) out[0].assign({v});
  });
  net.round_fast([](NodeId, const auto&, auto&&) {},
                 std::span<const NodeId>{});
  EXPECT_GT(net.memory_bytes(), before);
}

}  // namespace
}  // namespace dec
