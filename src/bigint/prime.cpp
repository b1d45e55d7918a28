#include "bigint/prime.h"

#include <stdexcept>

#include "bigint/limbs.h"

namespace ppms {

namespace {

// One Miller-Rabin witness against n, with n - 1 = d·2^s already
// decomposed. The squaring chain stays in the Montgomery domain of the
// candidate's own context; only the comparisons need the precomputed image
// of n-1. Reusing one context across every round/witness is what makes
// candidate testing cheap: the R/R² setup divisions are paid once per
// candidate instead of once per witness.
bool miller_rabin_witness(const FpCtx& F, const Bigint& d, std::size_t s,
                          const Bigint& base, const FpElem& n1_mont) {
  FpElem x = F.to_mont(F.pow(base, d));
  if (F.equal(x, F.one()) || F.equal(x, n1_mont)) return true;
  for (std::size_t i = 1; i < s; ++i) {
    F.sqr(x, x);
    if (F.equal(x, n1_mont)) return true;
    if (F.equal(x, F.one())) return false;  // nontrivial sqrt of 1
  }
  return false;
}

}  // namespace

const std::vector<std::uint32_t>& small_primes() {
  static const std::vector<std::uint32_t> primes = [] {
    // Sieve of Eratosthenes up to 2048.
    constexpr std::uint32_t kLimit = 2048;
    std::vector<bool> composite(kLimit, false);
    std::vector<std::uint32_t> out;
    for (std::uint32_t p = 2; p < kLimit; ++p) {
      if (composite[p]) continue;
      out.push_back(p);
      for (std::uint32_t q = p * p; q < kLimit; q += p) composite[q] = true;
    }
    return out;
  }();
  return primes;
}

bool has_small_factor(const Bigint& n) {
  for (const std::uint32_t p : small_primes()) {
    const Bigint bp(static_cast<std::int64_t>(p));
    if (n == bp) return false;
    if ((n % bp).is_zero()) return true;
  }
  return false;
}

bool is_prime_u64(std::uint64_t n) {
  __extension__ using U128 = unsigned __int128;
  if (n < 2) return false;
  for (const std::uint64_t p :
       {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull, 23ull, 29ull,
        31ull, 37ull}) {
    if (n % p == 0) return n == p;
  }
  const auto mulmod = [](std::uint64_t a, std::uint64_t b, std::uint64_t m) {
    return static_cast<std::uint64_t>((static_cast<U128>(a) * b) % m);
  };
  std::uint64_t d = n - 1;
  int s = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++s;
  }
  for (const std::uint64_t a :
       {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull, 23ull, 29ull,
        31ull, 37ull}) {
    std::uint64_t x = 1 % n;
    // powmod a^d mod n
    std::uint64_t base = a % n, e = d;
    while (e > 0) {
      if (e & 1) x = mulmod(x, base, n);
      base = mulmod(base, base, n);
      e >>= 1;
    }
    if (x == 1 || x == n - 1) continue;
    bool witness = true;
    for (int i = 1; i < s; ++i) {
      x = mulmod(x, x, n);
      if (x == n - 1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

bool miller_rabin_round(const Bigint& n, const Bigint& base) {
  // Write n - 1 = d * 2^s with d odd.
  const Bigint n_minus_1 = n - Bigint(1);
  Bigint d = n_minus_1;
  std::size_t s = 0;
  while (d.is_even()) {
    d = d >> 1;
    ++s;
  }
  const FpCtx F(n);
  return miller_rabin_witness(F, d, s, base, F.to_mont(n_minus_1));
}

bool is_probable_prime(const Bigint& n, SecureRandom& rng, int rounds) {
  if (n < Bigint(2)) return false;
  if (n == Bigint(2) || n == Bigint(3)) return true;
  if (n.is_even()) return false;
  if (has_small_factor(n)) return false;
  // Values below 2048^2 that survive the sieve are prime.
  if (n < Bigint(2048LL * 2048LL)) return true;

  // Decompose n - 1 = d·2^s and build the Montgomery context once; every
  // witness reuses both. Deliberately a local context, not the shared
  // fp_ctx cache: candidates are throwaway moduli and would only thrash it.
  const Bigint n_minus_1 = n - Bigint(1);
  Bigint d = n_minus_1;
  std::size_t s = 0;
  while (d.is_even()) {
    d = d >> 1;
    ++s;
  }
  const FpCtx F(n);
  const FpElem n1_mont = F.to_mont(n_minus_1);

  const Bigint n_minus_2 = n - Bigint(2);
  for (int i = 0; i < rounds; ++i) {
    const Bigint base = Bigint::random_range(rng, Bigint(2), n_minus_2);
    if (!miller_rabin_witness(F, d, s, base, n1_mont)) {
      return false;
    }
  }
  return true;
}

Bigint random_prime(SecureRandom& rng, std::size_t bits, int rounds) {
  if (bits < 2) throw std::invalid_argument("random_prime: bits < 2");
  for (;;) {
    Bigint candidate = Bigint::random_bits(rng, bits);
    if (candidate.is_even()) candidate += Bigint(1);
    // Forcing the low bit may not overflow the bit width (top bit was set,
    // +1 on an even number only flips bit 0).
    if (is_probable_prime(candidate, rng, rounds)) return candidate;
  }
}

Bigint random_safe_prime(SecureRandom& rng, std::size_t bits, int rounds) {
  if (bits < 3) throw std::invalid_argument("random_safe_prime: bits < 3");
  for (;;) {
    const Bigint q = random_prime(rng, bits - 1, rounds);
    const Bigint p = q * Bigint(2) + Bigint(1);
    if (p.bit_length() != bits) continue;
    if (is_probable_prime(p, rng, rounds)) return p;
  }
}

}  // namespace ppms
