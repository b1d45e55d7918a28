// Arbitrary-precision signed integers, implemented from scratch.
//
// This is the numeric substrate for every cryptographic primitive in the
// library (RSA, blind signatures, the pairing, ZK proofs, divisible e-cash).
// Representation is sign-magnitude over little-endian 32-bit limbs with
// 64-bit intermediates; multiplication switches to Karatsuba above a
// threshold and division is Knuth's Algorithm D.
//
// Conventions:
//  * Zero is canonical: empty limb vector, non-negative sign.
//  * operator% follows C++ truncated semantics (sign of the dividend);
//    `mod()` returns the mathematical residue in [0, |m|), which is what
//    all modular-arithmetic callers use.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/bytes.h"
#include "util/rng.h"

namespace ppms {

class Bigint {
 public:
  /// Zero.
  Bigint() = default;

  /// From a native signed integer.
  Bigint(std::int64_t v);  // NOLINT(google-explicit-constructor): numeric literal interop

  /// From a native unsigned integer.
  static Bigint from_u64(std::uint64_t v);

  /// Parse base-10, optional leading '-'. Throws std::invalid_argument on
  /// empty or non-digit input.
  static Bigint from_decimal(std::string_view s);

  /// Parse base-16 (case-insensitive, no 0x prefix), optional leading '-'.
  static Bigint from_hex(std::string_view s);

  /// Big-endian unsigned magnitude (leading zeros permitted).
  static Bigint from_bytes_be(const Bytes& b);

  std::string to_decimal() const;
  std::string to_hex() const;

  /// Minimal big-endian magnitude; returns {0x00} for zero. Negative values
  /// are rejected (wire format carries signs separately).
  Bytes to_bytes_be() const;

  /// Big-endian magnitude left-padded to exactly `width` bytes. Throws
  /// std::length_error if the value needs more than `width` bytes.
  Bytes to_bytes_be(std::size_t width) const;

  /// Value as u64; throws std::range_error if negative or >= 2^64.
  std::uint64_t to_u64() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_one() const { return !negative_ && limbs_.size() == 1 && limbs_[0] == 1; }
  bool is_negative() const { return negative_; }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool is_even() const { return !is_odd(); }

  /// -1, 0 or +1.
  int sign() const { return is_zero() ? 0 : (negative_ ? -1 : 1); }

  /// Number of significant bits of the magnitude (0 for zero).
  std::size_t bit_length() const;

  /// Bit `i` (LSB = 0) of the magnitude; false beyond bit_length().
  bool bit(std::size_t i) const;

  /// Number of 1-bits in the magnitude (used by the cash-break algorithms).
  std::size_t popcount() const;

  Bigint abs() const;
  Bigint operator-() const;

  friend bool operator==(const Bigint& a, const Bigint& b);
  friend std::strong_ordering operator<=>(const Bigint& a, const Bigint& b);

  friend Bigint operator+(const Bigint& a, const Bigint& b);
  friend Bigint operator-(const Bigint& a, const Bigint& b);
  friend Bigint operator*(const Bigint& a, const Bigint& b);
  /// Truncated division (rounds toward zero). Throws std::domain_error on
  /// division by zero.
  friend Bigint operator/(const Bigint& a, const Bigint& b);
  /// Truncated remainder: sign follows the dividend.
  friend Bigint operator%(const Bigint& a, const Bigint& b);

  Bigint& operator+=(const Bigint& b) { return *this = *this + b; }
  Bigint& operator-=(const Bigint& b) { return *this = *this - b; }
  Bigint& operator*=(const Bigint& b) { return *this = *this * b; }
  Bigint& operator/=(const Bigint& b) { return *this = *this / b; }
  Bigint& operator%=(const Bigint& b) { return *this = *this % b; }

  /// Quotient and truncated remainder in one division.
  static std::pair<Bigint, Bigint> divmod(const Bigint& a, const Bigint& b);

  /// Mathematical residue in [0, |m|). Throws std::domain_error if m == 0.
  Bigint mod(const Bigint& m) const;

  Bigint operator<<(std::size_t bits) const;
  Bigint operator>>(std::size_t bits) const;

  /// base^exp by square-and-multiply over plain integers (exp is small in
  /// all callers; modular exponentiation lives in modarith.h).
  static Bigint pow(const Bigint& base, std::uint64_t exp);

  /// 2^k.
  static Bigint two_pow(std::size_t k);

  /// Uniform integer with exactly `bits` bits (top bit forced to 1);
  /// `bits` == 0 yields zero.
  static Bigint random_bits(SecureRandom& rng, std::size_t bits);

  /// Uniform integer in [0, bound); bound must be positive.
  static Bigint random_below(SecureRandom& rng, const Bigint& bound);

  /// Uniform integer in [lo, hi); requires lo < hi.
  static Bigint random_range(SecureRandom& rng, const Bigint& lo,
                             const Bigint& hi);

  /// Read-only view of the little-endian 32-bit limbs of the magnitude.
  /// Exposed for FpCtx, which packs them into 64-bit limbs; not a stable wire
  /// format — use to_bytes_be for serialization.
  const std::vector<std::uint32_t>& raw_limbs() const { return limbs_; }

  /// Build a non-negative value directly from little-endian limbs
  /// (normalizes trailing zeros). Counterpart of raw_limbs().
  static Bigint from_raw_limbs(std::vector<std::uint32_t> limbs) {
    return Bigint(std::move(limbs), false);
  }

 private:
  // Magnitude helpers (operate on little-endian limb vectors, ignore sign).
  using Limbs = std::vector<std::uint32_t>;
  static int ucmp(const Limbs& a, const Limbs& b);
  static Limbs uadd(const Limbs& a, const Limbs& b);
  static Limbs usub(const Limbs& a, const Limbs& b);  // requires a >= b
  static Limbs umul(const Limbs& a, const Limbs& b);
  static Limbs umul_school(const Limbs& a, const Limbs& b);
  static Limbs umul_karatsuba(const Limbs& a, const Limbs& b);
  static void udivmod(const Limbs& a, const Limbs& b, Limbs& q, Limbs& r);
  static void trim(Limbs& v);

  Bigint(Limbs limbs, bool negative);

  Limbs limbs_;
  bool negative_ = false;
};

/// Greatest common divisor (always non-negative).
Bigint gcd(Bigint a, Bigint b);

/// Extended Euclid: returns (g, x, y) with a*x + b*y == g == gcd(a, b).
struct ExtGcd {
  Bigint g, x, y;
};
ExtGcd ext_gcd(const Bigint& a, const Bigint& b);

/// Least common multiple (non-negative); lcm(0, b) == 0.
Bigint lcm(const Bigint& a, const Bigint& b);

/// Modular inverse of a mod m (m > 1). Throws std::domain_error when
/// gcd(a, m) != 1.
Bigint modinv(const Bigint& a, const Bigint& m);

/// Jacobi symbol (a/n) for odd positive n; returns -1, 0 or 1.
int jacobi(Bigint a, Bigint n);

}  // namespace ppms
