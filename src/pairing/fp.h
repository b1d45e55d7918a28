// Prime-field helpers for the pairing layer.
//
// Elements of F_p are plain Bigints in [0, p); these helpers centralize the
// reductions and the square-root rule available when p ≡ 3 (mod 4), which
// Type-A pairing parameters guarantee.
#pragma once

#include <cstdint>
#include <optional>

#include "bigint/bigint.h"

namespace ppms {

/// (a + b) mod p for a, b already reduced.
Bigint fp_add(const Bigint& a, const Bigint& b, const Bigint& p);

/// (a - b) mod p for a, b already reduced.
Bigint fp_sub(const Bigint& a, const Bigint& b, const Bigint& p);

/// (a * b) mod p.
Bigint fp_mul(const Bigint& a, const Bigint& b, const Bigint& p);

/// a^{-1} mod p; throws std::domain_error for a ≡ 0.
Bigint fp_inv(const Bigint& a, const Bigint& p);

/// Process-wide count of fp_inv calls. Inversions dominate affine curve
/// arithmetic, so tests use this to pin down the pairing engine's budget
/// (exactly one per engine call, shared by every output of the batched
/// final exponentiation).
std::uint64_t fp_inv_calls();

/// -a mod p.
Bigint fp_neg(const Bigint& a, const Bigint& p);

/// Square root mod p for p ≡ 3 (mod 4): a^{(p+1)/4}. Returns nullopt when
/// `a` is not a quadratic residue. Throws std::invalid_argument for other
/// prime shapes.
std::optional<Bigint> fp_sqrt(const Bigint& a, const Bigint& p);

/// True when a is a quadratic residue mod odd prime p (Euler criterion);
/// zero counts as a residue.
bool fp_is_square(const Bigint& a, const Bigint& p);

}  // namespace ppms
