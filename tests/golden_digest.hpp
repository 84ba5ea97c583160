// Digests for golden-fixture tests: a solver result or ledger folded into
// one 64-bit FNV-1a value, so a fixture row can pin a whole coloring.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "coloring/defective.hpp"
#include "coloring/linial.hpp"
#include "core/balanced_orientation.hpp"
#include "core/token_dropping.hpp"
#include "sim/ledger.hpp"

namespace dec {

// FNV-1a over 64-bit words, byte by byte.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  template <class T>
  void add_all(const std::vector<T>& v) {
    add(v.size());
    for (const auto& x : v) add(static_cast<std::uint64_t>(x));
  }
};

inline std::uint64_t ledger_digest(const RoundLedger& l) {
  Fnv f;
  for (const auto& [name, rounds] : l.breakdown()) {
    for (const char c : name) f.add(static_cast<unsigned char>(c));
    f.add(static_cast<std::uint64_t>(rounds));
  }
  return f.h;
}

// Outputs only: rounds, widths and message counts are pinned separately.
inline std::uint64_t out_digest(const LinialResult& r) {
  Fnv f;
  f.add_all(r.colors);
  f.add(static_cast<std::uint64_t>(r.palette));
  f.add(static_cast<std::uint64_t>(r.iterations));
  return f.h;
}

inline std::uint64_t out_digest(const DefectiveResult& r) {
  Fnv f;
  f.add_all(r.colors);
  f.add(static_cast<std::uint64_t>(r.palette));
  f.add(static_cast<std::uint64_t>(r.max_defect));
  f.add(static_cast<std::uint64_t>(r.sweeps));
  f.add(r.converged ? 1 : 0);
  return f.h;
}

inline std::uint64_t out_digest(const TokenDroppingResult& r) {
  Fnv f;
  f.add_all(r.tokens);
  f.add_all(r.edge_passive);
  f.add(static_cast<std::uint64_t>(r.phases));
  f.add(static_cast<std::uint64_t>(r.tokens_moved));
  return f.h;
}

inline std::uint64_t out_digest(const BalancedOrientationResult& r) {
  Fnv f;
  const Orientation& o = r.orientation;
  f.add(static_cast<std::uint64_t>(o.graph().num_edges()));
  for (EdgeId e = 0; e < o.graph().num_edges(); ++e) {
    f.add(static_cast<std::uint64_t>(o.head(e)));
  }
  f.add(static_cast<std::uint64_t>(r.phases));
  f.add(static_cast<std::uint64_t>(r.flips));
  f.add(static_cast<std::uint64_t>(r.leftover_edges));
  f.add_all(r.leftover_edge);
  f.add(std::bit_cast<std::uint64_t>(r.max_excess));
  return f.h;
}

}  // namespace dec
