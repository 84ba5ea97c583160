// Slack boosting / partial coloring (paper Lemma D.3, imported from
// [5, Lemma 4.2]).
//
// Contract: given a (degree+1)-list instance (slack 1) on a 2-colored
// bipartite graph, partially color it so that the uncolored remainder has
// edge degree at most Δ̄/k_target, spending O(S² log k)·T(Δ̄, S, C) rounds
// plus O(log k · log* X) for the defective precolorings.
//
// Mechanism: stages halve the maximum uncolored degree D.
// Within a stage, a defective precoloring of the *line graph* splits the
// uncolored edges into O(S²) classes with at most d' = ⌈D/(4S)⌉ same-class
// neighbors each. Classes are processed sequentially; an edge whose
// uncolored degree still exceeds 2·S·d' when its class comes up has slack
//   (remaining list) / (in-class degree) ≥ (2Sd'+1)/d' ≥ 2S ≥ S
// inside its class, so the slack-S solver (Lemma D.2) colors it. Any edge
// left uncolored at stage end was below the 2Sd' ≈ D/2 threshold when its
// class ran, and degrees only fall — so the stage halves D.
#pragma once

#include <vector>

#include "coloring/list_instance.hpp"
#include "core/params.hpp"
#include "graph/bipartite.hpp"
#include "sim/ledger.hpp"

namespace dec {

struct BoostStats {
  std::int64_t rounds = 0;
  int stages = 0;
  std::int64_t colored = 0;
  int final_uncolored_degree = 0;
};

/// Partially color the uncolored edges of `colors` so the uncolored
/// remainder has edge degree <= ceil(Δ̄_g / k_target). The instance lists
/// must satisfy the degree+1 property w.r.t. g. S >= e² recommended.
BoostStats boost_partial_color(const Graph& g, const Bipartition& parts,
                               const ListEdgeInstance& inst, double S,
                               int k_target,
                               const std::vector<Color>& schedule,
                               int schedule_palette, std::vector<Color>& colors,
                               ParamMode mode = ParamMode::kPractical,
                               RoundLedger* ledger = nullptr);

}  // namespace dec
