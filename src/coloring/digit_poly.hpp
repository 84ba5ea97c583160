// Base-q digit polynomials over GF(q), evaluated without hardware division.
//
// Linial's reduction step and defective precolor (Lemma 6.2) both read a
// color c < q^(d+1) as the degree-≤d polynomial over GF(q) whose
// coefficients are c's base-q digits c_0 .. c_d, and evaluate it at points
// r < q by Horner's rule. Every digit and every Horner step divides by the
// same q, so DigitPoly precomputes the 64-bit reciprocal
// M = ⌊(2^64 − 1) / q⌋ + 1 once and divides by multiplication (Lemire,
// Kaser, Kurz, "Faster Remainder by Direct Computation", Software: Practice
// and Experience 2019):
//     n / q   = ⌊M·n / 2^64⌋
//     n mod q = ⌊(M·n mod 2^64) · q / 2^64⌋
// both exact for every numerator n < 2^32 and every divisor 2 ≤ q < 2^32.
//
// Exactness domain: numerators (colors) below 2^32 and q ≤ 2^16, so that a
// Horner step acc·r + c_i ≤ (q−1)² + (q−1) < q² stays a 32-bit numerator.
// The constructor enforces the q bound. The callers' palettes q² must also
// fit the int32 Color range, which they enforce themselves: linial_color
// requires id_space ≤ INT32_MAX (every step's q² is below it) and
// defective_precolor requires q² ≤ INT32_MAX.
#pragma once

#include <cstdint>

#include "util/check.hpp"

namespace dec {

class DigitPoly {
 public:
  /// Largest modulus inside the exactness domain.
  static constexpr std::int64_t kMaxModulus = std::int64_t{1} << 16;

  DigitPoly(std::int64_t q, int d) : q_(static_cast<std::uint32_t>(q)), d_(d) {
    DEC_REQUIRE(q >= 2 && q <= kMaxModulus,
                "digit polynomial modulus outside the exact 32-bit domain");
    DEC_REQUIRE(d >= 0, "digit polynomial degree must be non-negative");
    m_ = ~std::uint64_t{0} / q_ + 1;
  }

  std::uint32_t q() const { return q_; }
  int degree() const { return d_; }

  std::uint32_t div(std::uint32_t n) const {
    return static_cast<std::uint32_t>((static_cast<unsigned __int128>(m_) * n) >>
                                      64);
  }

  std::uint32_t mod(std::uint32_t n) const {
    const std::uint64_t low = m_ * n;
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(low) * q_) >> 64);
  }

  /// Write the d+1 base-q digits c_0 .. c_d of `color` to `digits`.
  void decode(std::uint32_t color, std::uint32_t* digits) const {
    for (int i = 0; i <= d_; ++i) {
      const std::uint32_t hi = div(color);
      digits[i] = color - hi * q_;
      color = hi;
    }
  }

  /// The polynomial with digits c_0 .. c_d at r < q (Horner from c_d down).
  std::uint32_t eval(const std::uint32_t* digits, std::uint32_t r) const {
    std::uint32_t acc = digits[d_];
    for (int i = d_ - 1; i >= 0; --i) acc = mod(acc * r + digits[i]);
    return acc;
  }

 private:
  std::uint32_t q_;
  int d_;
  std::uint64_t m_ = 0;  // ⌊(2^64 − 1) / q⌋ + 1
};

}  // namespace dec
