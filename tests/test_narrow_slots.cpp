// Slot tests: 16 B slot layout, delivery semantics (inline, slab-spilled
// and count-saturated payloads of 255+ fields, epoch gating, drain),
// declared-width enforcement (throws with an actionable message, never
// truncates, network stays usable after the rollback), widths wider than a
// slab chunk, per-lease width re-declaration, and the plane memory the
// 16 B slot buys.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "sim/dinetwork.hpp"
#include "sim/ledger.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"
#include "sim/slab.hpp"
#include "sim/topology.hpp"
#include "util/rng.hpp"

namespace dec {
namespace {

static_assert(sizeof(NarrowSlot) == 16, "the slot plane is 16 B per slot");

SlotPlan narrow(int max_fields, PlaneMode mode = PlaneMode::kDouble) {
  return SlotPlan{.max_fields = max_fields, .mode = mode};
}

// ------------------------------------------------------------ delivery

TEST(NarrowSlots, SingleFieldRoundTrip) {
  for (const int threads : {1, 2, 4}) {
    const Graph g = gen::cycle(7);
    SyncNetwork net(g, nullptr, "narrow_echo", threads, narrow(1));
    EXPECT_EQ(net.declared_fields(), 1);

    // Round 0: inbox must read all-empty (epoch gating), then everyone
    // announces its id.
    net.round_fast([&](NodeId v, const auto& in, auto&& out) {
      for (std::size_t i = 0; i < in.size(); ++i) {
        EXPECT_TRUE(in[i].empty());
      }
      for (auto&& m : out) m.assign({v});
    });
    // Drain: entry i is what g.neighbors(v)[i] sent.
    net.drain_fast([&](NodeId v, const auto& in) {
      const auto nb = g.neighbors(v);
      ASSERT_EQ(in.size(), nb.size());
      for (std::size_t i = 0; i < nb.size(); ++i) {
        ASSERT_FALSE(in[i].empty());
        EXPECT_EQ(in[i].size(), 1u);
        EXPECT_EQ(in[i].at(0), static_cast<std::int64_t>(nb[i].neighbor));
      }
    });
    EXPECT_EQ(net.rounds_executed(), 1);
    EXPECT_EQ(net.audit().messages_sent(),
              static_cast<std::int64_t>(2 * g.num_edges()));
  }
}

TEST(NarrowSlots, SpilledPayloadRoundTrip) {
  // declared width 3: count 1 stays in the slot, counts 2..3 spill to the
  // shard slab. Multiple rounds exercise the per-round slab rewind and the
  // read-plane spill resolution both mid-round and during the final drain.
  for (const int threads : {1, 2, 4}) {
    Rng rng(7);
    const Graph g = gen::gnp(40, 0.2, rng);
    SyncNetwork net(g, nullptr, "narrow_spill", threads, narrow(3));
    for (int r = 0; r < 3; ++r) {
      net.round_fast([&](NodeId v, const auto& in, auto&& out) {
        if (r > 0) {
          const auto nb = g.neighbors(v);
          for (std::size_t i = 0; i < in.size(); ++i) {
            const auto& m = in[i];
            const auto w = static_cast<std::int64_t>(nb[i].neighbor);
            ASSERT_EQ(m.size(), 3u);
            EXPECT_EQ(m.at(0), w);
            EXPECT_EQ(m.at(1), w + r - 1);
            EXPECT_EQ(m.at(2), -w);
          }
        }
        for (auto&& m : out) m.assign({v, v + r, -static_cast<std::int64_t>(v)});
      });
    }
    net.drain_fast([&](NodeId v, const auto& in) {
      const auto nb = g.neighbors(v);
      for (std::size_t i = 0; i < in.size(); ++i) {
        const auto w = static_cast<std::int64_t>(nb[i].neighbor);
        // Range-for over the view's fields via the iterator form too.
        std::vector<std::int64_t> got;
        for (const std::int64_t f : in[i].fields()) got.push_back(f);
        ASSERT_EQ(got.size(), 3u);
        EXPECT_EQ(got[0], w);
        EXPECT_EQ(got[1], w + 2);
        EXPECT_EQ(got[2], -w);
      }
    });
  }
}

// Payload length per (sender, edge index, round): a mix of inline, plain
// spilled, and count-saturated (>= 255 fields) payloads around the 254/255
// boundary, up to the declared width.
std::size_t long_len(NodeId v, std::size_t i, int r, int declared) {
  static constexpr std::size_t kLens[] = {1, 2, 254, 255, 256, 0};
  const std::size_t pick = (static_cast<std::size_t>(v) + 2 * i +
                            static_cast<std::size_t>(r)) %
                           7;
  return pick < 6 ? kLens[pick] : static_cast<std::size_t>(declared);
}

std::int64_t long_field(NodeId v, std::size_t k, int r) {
  return static_cast<std::int64_t>(v) * 100000 +
         static_cast<std::int64_t>(k) * 7 + r;
}

TEST(NarrowSlots, SaturatedPayloadRoundTrip) {
  // Declared width 300 > 254: payloads of 255+ fields saturate the 8-bit
  // count and carry their length in the spill block. Every round reads the
  // previous one before writing (single-plane safe); on 2/4 shards the
  // random graph's cross-shard edges read spills from the sender's slab.
  constexpr int kWidth = 300;
  Rng rng(17);
  const Graph g = gen::gnp(48, 0.15, rng);
  for (const PlaneMode mode : {PlaneMode::kDouble, PlaneMode::kSingle}) {
    for (const int threads : {1, 2, 4}) {
      SyncNetwork net(g, nullptr, "long", threads, narrow(kWidth, mode));
      std::int64_t expect_msgs = 0;
      std::vector<int> bad(static_cast<std::size_t>(g.num_nodes()), 0);
      for (int r = 0; r < 5; ++r) {
        net.round_fast([&](NodeId v, const auto& in, auto&& out) {
          const auto nb = g.neighbors(v);
          int& b = bad[static_cast<std::size_t>(v)];
          for (std::size_t i = 0; r > 0 && i < in.size(); ++i) {
            const NodeId w = nb[i].neighbor;
            const auto& wn = g.neighbors(w);
            std::size_t back = 0;  // v's index in w's neighbor list
            while (wn[back].neighbor != v) ++back;
            const std::size_t len = long_len(w, back, r - 1, kWidth);
            const auto m = in[i];
            if (m.size() != len) {
              ++b;
              continue;
            }
            for (std::size_t k = 0; k < len; ++k) {
              if (m.at(k) != long_field(w, k, r - 1)) ++b;
            }
          }
          for (std::size_t i = 0; i < out.size(); ++i) {
            const std::size_t len = long_len(v, i, r, kWidth);
            if (len == 0) continue;
            auto m = out[i];
            for (std::size_t k = 0; k < len; ++k) m.push(long_field(v, k, r));
          }
        });
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          for (std::size_t i = 0; i < g.neighbors(v).size(); ++i) {
            expect_msgs += long_len(v, i, r, kWidth) > 0 ? 1 : 0;
          }
        }
      }
      EXPECT_EQ(std::count(bad.begin(), bad.end(), 0), g.num_nodes())
          << "mode " << static_cast<int>(mode) << " threads " << threads;
      EXPECT_EQ(net.audit().messages_sent(), expect_msgs);
    }
  }
}

TEST(NarrowSlots, SaturatedPayloadClearsAndDrains) {
  // clear() after a saturated payload starts over in a fresh block, and a
  // drain resolves saturated spills like a round does.
  const Graph g = gen::path(2);
  SyncNetwork net(g, nullptr, "long_drain", 2, narrow(260));
  net.round_fast([&](NodeId v, const auto&, auto&& out) {
    auto m = out[0];
    for (int k = 0; k < 260; ++k) m.push(-1);
    m.clear();
    for (int k = 0; k < 258; ++k) m.push(v * 1000 + k);
  });
  net.drain_fast([&](NodeId v, const auto& in) {
    const NodeId w = 1 - v;
    ASSERT_EQ(in[0].size(), 258u);
    EXPECT_EQ(in[0].at(0), w * 1000);
    EXPECT_EQ(in[0].at(257), w * 1000 + 257);
  });
}

TEST(NarrowSlots, DeclaredWidthWiderThanASlabChunk) {
  // A declared width past one slab chunk sizes every spill block beyond the
  // chunk, so each block gets a chunk of its own.
  const int width = static_cast<int>(MessageSlab::kChunkFields) + 9;
  const Graph g = gen::star(4);
  for (const int threads : {1, 2}) {
    SyncNetwork net(g, nullptr, "huge", threads, narrow(width));
    for (int r = 0; r < 3; ++r) {
      net.round_fast([&](NodeId v, const auto& in, auto&& out) {
        for (std::size_t i = 0; r > 0 && i < in.size(); ++i) {
          const NodeId w = g.neighbors(v)[i].neighbor;
          ASSERT_EQ(in[i].size(), static_cast<std::size_t>(width));
          EXPECT_EQ(in[i].at(0), w);
          EXPECT_EQ(in[i].at(static_cast<std::size_t>(width) - 1), w + r - 1);
        }
        for (auto&& m : out) {
          m.push(v);
          for (int k = 1; k + 1 < width; ++k) m.push(k);
          m.push(v + r);
        }
      });
    }
    EXPECT_EQ(net.rounds_executed(), 3);
  }
}

TEST(NarrowSlots, InboxIterationMatchesIndexing) {
  const Graph g = gen::star(5);
  SyncNetwork net(g, nullptr, "narrow_iter", 1, narrow(2));
  net.round_fast([&](NodeId v, const auto&, auto&& out) {
    std::size_t i = 0;
    for (auto&& m : out) {
      m.assign({v, static_cast<std::int64_t>(i)});
      ++i;
    }
  });
  net.drain_fast([&](NodeId v, const auto& in) {
    std::size_t i = 0;
    for (const auto& m : in) {  // by-value views; const auto& binds fine
      ASSERT_FALSE(m.empty());
      EXPECT_EQ(m.at(0), in[i].at(0));
      EXPECT_EQ(m.at(1), in[i].at(1));
      ++i;
    }
    EXPECT_EQ(i, in.size());
  });
}

TEST(NarrowSlots, ResetInvalidatesDeliveredPlane) {
  const Graph g = gen::cycle(4);
  SyncNetwork net(g, nullptr, "narrow_reset", 1, narrow(1));
  net.round_fast([&](NodeId v, const auto&, auto&& out) {
    for (auto&& m : out) m.assign({v});
  });
  net.reset();
  EXPECT_EQ(net.rounds_executed(), 0);
  net.drain_fast([&](NodeId, const auto& in) {
    for (std::size_t i = 0; i < in.size(); ++i) EXPECT_TRUE(in[i].empty());
  });
}

// ------------------------------------------------- declared-width violations

TEST(NarrowSlots, WidthViolationThrowsActionably) {
  const Graph g = gen::cycle(6);
  SyncNetwork net(g, nullptr, "narrow_overflow", 1, narrow(2));
  try {
    net.round_fast([&](NodeId v, const auto&, auto&& out) {
      for (auto&& m : out) m.assign({v, v, v});  // 3 > declared 2
    });
    FAIL() << "over-wide message must throw, never truncate";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("message wider than the protocol's declared slot "
                        "plan"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("component 'narrow_overflow'"), std::string::npos);
    EXPECT_NE(what.find("round 0"), std::string::npos);
    EXPECT_NE(what.find("node 0"), std::string::npos);
    EXPECT_NE(what.find("reached 3 fields"), std::string::npos);
    EXPECT_NE(what.find("declared max_fields=2"), std::string::npos);
    EXPECT_NE(what.find("never truncates"), std::string::npos);
  }
  // The aborted round rolled back: no round charged, and the network is
  // fully usable afterwards.
  EXPECT_EQ(net.rounds_executed(), 0);
  net.round_fast([&](NodeId v, const auto&, auto&& out) {
    for (auto&& m : out) m.assign({v, v + 1});
  });
  net.drain_fast([&](NodeId v, const auto& in) {
    const auto nb = g.neighbors(v);
    for (std::size_t i = 0; i < in.size(); ++i) {
      ASSERT_EQ(in[i].size(), 2u);
      EXPECT_EQ(in[i].at(0), static_cast<std::int64_t>(nb[i].neighbor));
    }
  });
  EXPECT_EQ(net.rounds_executed(), 1);
}

TEST(NarrowSlots, SaturatedWidthViolationCountsTheTrueLength) {
  // Past 254 fields the slot count saturates; the violation must still
  // report the true length.
  const Graph g = gen::path(2);
  for (const int declared : {255, 300}) {
    SyncNetwork net(g, nullptr, "long_overflow", 1, narrow(declared));
    try {
      net.round_fast([&](NodeId, const auto&, auto&& out) {
        auto m = out[0];
        for (int k = 0; k <= declared; ++k) m.push(k);
      });
      FAIL() << "over-wide saturated message must throw";
    } catch (const CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("reached " + std::to_string(declared + 1) +
                          " fields"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("declared max_fields=" + std::to_string(declared)),
                std::string::npos)
          << what;
    }
    EXPECT_EQ(net.rounds_executed(), 0);
  }
}

TEST(NarrowSlots, WidthViolationThrowsSharded) {
  // The violating node program runs on a pool worker; the throw must cross
  // the round barrier and the round must roll back.
  const Graph g = gen::grid(8, 8);
  SyncNetwork net(g, nullptr, "narrow_overflow_par", 4, narrow(1));
  EXPECT_THROW(net.round_fast([&](NodeId v, const auto&, auto&& out) {
                 if (v == 37) {
                   for (auto&& m : out) m.assign({1, 2});
                 } else {
                   for (auto&& m : out) m.assign({v});
                 }
               }),
               CheckError);
  EXPECT_EQ(net.rounds_executed(), 0);
  net.round_fast([&](NodeId v, const auto&, auto&& out) {
    for (auto&& m : out) m.assign({v});
  });
  EXPECT_EQ(net.rounds_executed(), 1);
}

TEST(NarrowSlots, ArcWidthViolationThrowsActionably) {
  const Digraph dg(3, {{0, 1}, {1, 2}, {2, 0}});
  DiNetwork net(dg, nullptr, "di_overflow", 1, narrow(1));
  try {
    net.round_fast([&](NodeId, const auto&, DiOutbox& out) {
      out.along(0, {1, 2});  // 2 > declared arc width 1
    });
    FAIL() << "over-wide arc payload must throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("arc payload wider than the protocol's declared arc "
                        "plan"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("component 'di_overflow'"), std::string::npos);
    EXPECT_NE(what.find("max_fields=1"), std::string::npos);
    EXPECT_NE(what.find("never truncates"), std::string::npos);
  }
}

// ---------------------------------------------------- plan validation/guards

TEST(NarrowSlots, PlanValidation) {
  const Graph g = gen::cycle(3);
  EXPECT_THROW(SyncNetwork(g, nullptr, "bad", 1, narrow(0)), CheckError);
  EXPECT_THROW(SyncNetwork(g, nullptr, "bad", 1, narrow(-1)), CheckError);
  EXPECT_NO_THROW(SyncNetwork(g, nullptr, "ok", 1, narrow(255)));
  EXPECT_NO_THROW(SyncNetwork(g, nullptr, "ok", 1, narrow(256)));
}

TEST(NarrowSlots, RebindRedeclaresWidthButNotPlaneMode) {
  const Graph g = gen::cycle(5);
  auto topo = NetworkTopology::plan(g, 1);
  SyncNetwork net(g, topo, nullptr, "rebind", narrow(1));
  // Same mode, wider declaration: the spill path must now work.
  net.rebind(g, topo, nullptr, "rebind", narrow(3));
  EXPECT_EQ(net.declared_fields(), 3);
  net.round_fast([&](NodeId v, const auto&, auto&& out) {
    for (auto&& m : out) m.assign({v, v, v});
  });
  net.drain_fast([&](NodeId, const auto& in) {
    for (std::size_t i = 0; i < in.size(); ++i) EXPECT_EQ(in[i].size(), 3u);
  });
  // The plane mode is structural: a rebind cannot flip it.
  EXPECT_THROW(net.rebind(g, topo, nullptr, "rebind",
                          narrow(1, PlaneMode::kSingle)),
               CheckError);
}

// ------------------------------------------------------------- memory

TEST(NarrowSlots, MemoryBytesAtMostHalfOfA64ByteSlotPlane) {
  // Same shape, width-1 protocol: the whole run state must stay within half
  // the bytes a plane pair of 64 B slots would take on its own (16 B slots;
  // slabs empty for width-1 leases).
  Rng rng(11);
  const Graph g = gen::random_regular(512, 8, rng);
  SyncNetwork net(g, nullptr, "mem", 1, narrow(1));
  net.round_fast([&](NodeId v, const auto&, auto&& out) {
    for (auto&& m : out) m.assign({v});
  });
  EXPECT_LE(2 * net.memory_bytes(), 2 * net.num_slots() * 64)
      << net.memory_bytes();
}

TEST(NarrowSlots, AuditMatchesRecordedWidePlane) {
  // Bits are a function of field values alone. The expected numbers were
  // recorded from the same protocol on the former 64 B slot plane.
  Rng rng(3);
  const Graph g = gen::gnp(60, 0.1, rng);
  SyncNetwork net(g, nullptr, "audit", 1, narrow(1));
  for (int r = 0; r < 2; ++r) {
    net.round_fast([&](NodeId v, const auto&, auto&& out) {
      std::size_t i = 0;
      for (auto&& m : out) {
        if ((v + i) % 3 == 0) {
          m.assign({v * 1000 + static_cast<std::int64_t>(i)});
        }
        ++i;
      }
    });
  }
  EXPECT_EQ(net.audit().max_bits(), 17);
  EXPECT_EQ(net.audit().messages_sent(), 224);
}

}  // namespace
}  // namespace dec
