// Modular arithmetic on Bigint: modular multiplication and modular
// exponentiation.
//
// `modexp` is the facade everything else calls; it runs odd moduli up to
// 2048 bits on the Montgomery ladder of the shared per-modulus FpCtx
// (bigint/limbs.h) and everything else — even moduli, wider moduli, short
// exponents — on the division-based sliding window. `modexp_binary` is
// the textbook oracle the tests compare every fast path against.
//
// Fixed-modulus fast path: the RSA, blind-signature, CL and ZKP layers fire
// thousands of exponentiations against the same handful of moduli, so the
// Montgomery precomputation (R mod m, R² mod m — two full divisions) is
// cached per modulus by `fp_ctx(m)`, and `modexp(base, exp, ctx)` lets
// session-lifetime callers skip even the cache lookup.
#pragma once

#include <optional>

#include "bigint/bigint.h"

namespace ppms {

class FpCtx;

/// (a * b) mod m, with m > 0.
Bigint modmul(const Bigint& a, const Bigint& b, const Bigint& m);

/// base^exp mod m. Requires exp >= 0 and m > 0; base may be any integer.
/// Picks the fastest applicable strategy; m == 1 yields canonical zero.
Bigint modexp(const Bigint& base, const Bigint& exp, const Bigint& m);

/// base^exp mod ctx.modulus() with the precomputation already paid.
/// Requires exp >= 0. This is the hot-path entry point for callers that
/// hold a context for a session's lifetime (RSA keys, ZKP groups, tower
/// primes).
Bigint modexp(const Bigint& base, const Bigint& exp, const FpCtx& ctx);

/// Left-to-right square-and-multiply (baseline strategy).
Bigint modexp_binary(const Bigint& base, const Bigint& exp, const Bigint& m);

/// Sliding-window exponentiation (window 4) without Montgomery form: the
/// facade's path for even moduli, moduli wider than 2048 bits and short
/// exponents.
Bigint modexp_window(const Bigint& base, const Bigint& exp, const Bigint& m);

/// Square root of a modulo an odd prime p (Tonelli-Shanks; a single
/// exponentiation when p ≡ 3 mod 4). Returns one of the two roots in
/// [0, p) — callers needing a canonical choice take min(r, p-r) — or
/// nullopt for quadratic non-residues. `rng` samples the auxiliary
/// non-residue the general case needs. Throws std::invalid_argument if p
/// is even or < 3.
std::optional<Bigint> mod_sqrt(const Bigint& a, const Bigint& p,
                               SecureRandom& rng);

/// Integer square root: the largest s with s² <= n (Newton's method).
/// Throws std::domain_error for negative n.
Bigint isqrt(const Bigint& n);

}  // namespace ppms
