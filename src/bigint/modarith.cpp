#include "bigint/modarith.h"

#include <array>
#include <stdexcept>

#include "bigint/limbs.h"
#include "obs/metrics.h"

namespace ppms {

namespace {

// Counter only on this hot path: modexp calls are sub-microsecond at the
// small benchmark sizes, so a ScopedTimer's clock reads would dominate.
void count_modexp() {
  static obs::Counter& obs_calls = obs::counter("crypto.modexp.calls");
  obs_calls.add();
}

// Montgomery only pays off once the per-modulus setup amortizes over many
// multiplications; below this exponent size the plain window wins.
constexpr std::size_t kMontgomeryMinExpBits = 17;

}  // namespace

Bigint modmul(const Bigint& a, const Bigint& b, const Bigint& m) {
  if (m.sign() <= 0) throw std::domain_error("modmul: modulus must be > 0");
  return (a * b).mod(m);
}

Bigint modexp_binary(const Bigint& base, const Bigint& exp, const Bigint& m) {
  if (m.sign() <= 0) {
    throw std::domain_error("modexp: modulus must be > 0");
  }
  if (exp.is_negative()) {
    throw std::invalid_argument("modexp: negative exponent");
  }
  if (m.is_one()) return Bigint();  // canonical zero
  Bigint result = Bigint(1).mod(m);
  Bigint b = base.mod(m);
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    result = (result * result).mod(m);
    if (exp.bit(i)) result = (result * b).mod(m);
  }
  return result;
}

Bigint modexp_window(const Bigint& base, const Bigint& exp, const Bigint& m) {
  if (m.sign() <= 0) {
    throw std::domain_error("modexp: modulus must be > 0");
  }
  if (exp.is_negative()) {
    throw std::invalid_argument("modexp: negative exponent");
  }
  if (m.is_one()) return Bigint();  // canonical zero
  if (exp.is_zero()) return Bigint(1).mod(m);

  constexpr std::size_t kWindow = 4;
  const Bigint b = base.mod(m);
  std::array<Bigint, 1 << (kWindow - 1)> odd_powers;
  odd_powers[0] = b;
  const Bigint b2 = (b * b).mod(m);
  for (std::size_t i = 1; i < odd_powers.size(); ++i) {
    odd_powers[i] = (odd_powers[i - 1] * b2).mod(m);
  }
  Bigint acc = Bigint(1).mod(m);
  std::ptrdiff_t i = static_cast<std::ptrdiff_t>(exp.bit_length()) - 1;
  while (i >= 0) {
    if (!exp.bit(static_cast<std::size_t>(i))) {
      acc = (acc * acc).mod(m);
      --i;
      continue;
    }
    std::ptrdiff_t j = std::max<std::ptrdiff_t>(0, i - kWindow + 1);
    while (!exp.bit(static_cast<std::size_t>(j))) ++j;
    std::uint32_t window = 0;
    for (std::ptrdiff_t k = i; k >= j; --k) {
      acc = (acc * acc).mod(m);
      window = (window << 1) | (exp.bit(static_cast<std::size_t>(k)) ? 1 : 0);
    }
    acc = (acc * odd_powers[(window - 1) / 2]).mod(m);
    i = j - 1;
  }
  return acc;
}

Bigint modexp(const Bigint& base, const Bigint& exp, const FpCtx& ctx) {
  count_modexp();
  if (exp.is_negative()) {
    throw std::invalid_argument("modexp: negative exponent");
  }
  return ctx.pow(base, exp);
}

Bigint modexp(const Bigint& base, const Bigint& exp, const Bigint& m) {
  count_modexp();
  if (m.sign() <= 0) {
    throw std::domain_error("modexp: modulus must be > 0");
  }
  if (exp.is_negative()) {
    throw std::invalid_argument("modexp: negative exponent");
  }
  // Explicit dispatch, in order:
  //  1. m == 1: everything is congruent to canonical zero.
  //  2. even m or m wider than 2048 bits: FpCtx cannot hold it, and the
  //     window handles any m.
  //  3. short exponents: the per-modulus setup (even cached, the lookup)
  //     does not amortize; plain window wins.
  //  4. otherwise: Montgomery with the shared per-modulus context from
  //     the cache.
  if (m.is_one()) return Bigint();
  if (!FpCtx::supports(m) || exp.bit_length() < kMontgomeryMinExpBits) {
    return modexp_window(base, exp, m);
  }
  return fp_ctx(m)->pow(base, exp);
}

std::optional<Bigint> mod_sqrt(const Bigint& a, const Bigint& p,
                               SecureRandom& rng) {
  if (p < Bigint(3) || p.is_even()) {
    throw std::invalid_argument("mod_sqrt: p must be an odd prime >= 3");
  }
  const Bigint x = a.mod(p);
  if (x.is_zero()) return Bigint(0);
  if (jacobi(x, p) != 1) return std::nullopt;

  // Fast path: p ≡ 3 (mod 4).
  if ((p % Bigint(4)).to_u64() == 3) {
    return modexp(x, (p + Bigint(1)) / Bigint(4), p);
  }

  // Tonelli-Shanks. Write p - 1 = q·2^s with q odd.
  Bigint q = p - Bigint(1);
  std::size_t s = 0;
  while (q.is_even()) {
    q = q >> 1;
    ++s;
  }
  // A quadratic non-residue z (half of all elements qualify).
  Bigint z;
  do {
    z = Bigint::random_range(rng, Bigint(2), p);
  } while (jacobi(z, p) != -1);

  Bigint m = Bigint::from_u64(s);
  Bigint c = modexp(z, q, p);
  Bigint t = modexp(x, q, p);
  Bigint r = modexp(x, (q + Bigint(1)) / Bigint(2), p);
  while (!t.is_one()) {
    // Least i with t^(2^i) == 1.
    std::uint64_t i = 0;
    Bigint t2 = t;
    while (!t2.is_one()) {
      t2 = (t2 * t2).mod(p);
      ++i;
    }
    const Bigint b =
        modexp(c, Bigint::two_pow(
                      static_cast<std::size_t>(m.to_u64() - i - 1)),
               p);
    m = Bigint::from_u64(i);
    c = (b * b).mod(p);
    t = (t * c).mod(p);
    r = (r * b).mod(p);
  }
  return r;
}

Bigint isqrt(const Bigint& n) {
  if (n.is_negative()) throw std::domain_error("isqrt: negative input");
  if (n < Bigint(2)) return n;
  // Newton: x_{k+1} = (x_k + n / x_k) / 2, seeded above the root.
  Bigint x = Bigint::two_pow(n.bit_length() / 2 + 1);
  for (;;) {
    const Bigint y = (x + n / x) >> 1;
    if (y >= x) break;
    x = y;
  }
  return x;
}

}  // namespace ppms
