// The paper's parameter formulas (Eqs. (4)–(7), Theorem 5.6, Appendix C/D).
//
// Two modes:
//  * theory   — the literal constants from the paper. These make the additive
//               guarantees vacuous at laptop-scale Δ (β = C·ln³Δ̄/ε⁵ exceeds
//               Δ̄ itself), but tests use them to verify we compute exactly
//               what the paper prescribes.
//  * practical — identical algorithms with gentler additive constants, sized
//               so that the multiplicative behaviour (the part the
//               experiments measure) is visible at Δ ∈ [16, 512].
#pragma once

#include <cstdint>


namespace dec {

enum class ParamMode { kTheory, kPractical };

struct OrientationParams {
  double nu = 0.125;          // ν ∈ (0, 1/8] (Eq. 4)
  ParamMode mode = ParamMode::kPractical;
  std::int64_t max_phases = 0;  // 0 = derive from ν and Δ̄
};

/// α_v(φ) of Eq. (5): max{1, (1/4)·(ν²/ln Δ̄)·(d⁻ + 1)} in theory mode.
/// Practical mode uses max{1, ν·(d⁻+1)/8}: a larger α (more tolerated slack)
/// that keeps the token dropping fast and the guarantee non-vacuous at
/// laptop-scale Δ.
double alpha_of(double nu, double dbar_log, std::int64_t d_minus,
                ParamMode mode);

/// δ_φ of Eq. (6): max{1, ⌊(1/16)·(ν⁶/ln³Δ̄)·(1−ν)^(φ−1)·Δ̄⌋} in theory
/// mode; practical replaces the ν⁶/(16·ln³Δ̄) damping by ν²/8 (same
/// geometric decay across phases, milder constant).
std::int64_t delta_phi(double nu, double dbar, double dbar_log,
                       std::int64_t phi, ParamMode mode);

/// k_φ = ⌈ν(1−ν)^(φ−1)·Δ̄⌉ (step 3 of the §5 algorithm; both modes).
std::int64_t k_phi(double nu, double dbar, std::int64_t phi);

/// β of Theorem 5.6 / Corollary 5.7: C·ln³Δ̄/ε⁵ with C = 28 from the Lemma
/// 5.5 chain (theory), or the practical estimate max{2, ln(Δ̄+2)} used for
/// η_e offsets, recursion budgets, and passive thresholds.
double beta_of(double eps, double dbar, ParamMode mode);

/// ε = 8ν (Theorem 5.6 proof).
inline double eps_from_nu(double nu) { return 8.0 * nu; }
inline double nu_from_eps(double eps) { return eps / 8.0; }

}  // namespace dec
