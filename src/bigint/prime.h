// Probabilistic primality testing and prime generation.
//
// Miller-Rabin with a small-prime trial-division prefilter. Error
// probability is <= 4^-rounds per composite; the default 32 rounds makes a
// false positive less likely than hardware failure. The rounds run on the
// candidate's FpCtx (bigint/limbs.h), so candidates are limited to its
// 2048-bit width: wider odd inputs throw std::invalid_argument.
#pragma once

#include <cstdint>
#include <vector>

#include "bigint/bigint.h"
#include "util/rng.h"

namespace ppms {

/// The trial-division primes used by the prefilter (all primes < 2048).
const std::vector<std::uint32_t>& small_primes();

/// True when n has a prime factor < 2048 that is not n itself.
bool has_small_factor(const Bigint& n);

/// One Miller-Rabin round with the given base; true = "probably prime".
/// Requires n odd and > 2.
bool miller_rabin_round(const Bigint& n, const Bigint& base);

/// Deterministic primality for 64-bit inputs (Miller-Rabin with the twelve
/// bases 2..37, proven sufficient below 3.3e24). Used by the Cunningham
/// chain search hot loop and by hash-to-prime derivations that must agree
/// across parties with no randomness.
bool is_prime_u64(std::uint64_t n);

/// Full probable-prime test: handles small cases exactly, then trial
/// division plus `rounds` Miller-Rabin rounds with random bases.
bool is_probable_prime(const Bigint& n, SecureRandom& rng, int rounds = 32);

/// Uniform probable prime with exactly `bits` bits (bits >= 2).
Bigint random_prime(SecureRandom& rng, std::size_t bits, int rounds = 32);

/// Random safe prime p = 2q + 1 with p of exactly `bits` bits (both p and q
/// prime). Used for ZKP groups with hidden-order subgroups.
Bigint random_safe_prime(SecureRandom& rng, std::size_t bits,
                         int rounds = 32);

}  // namespace ppms
