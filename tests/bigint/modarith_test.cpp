#include "bigint/modarith.h"

#include <gtest/gtest.h>

#include "bigint/limbs.h"
#include "bigint/montgomery.h"
#include "bigint/prime.h"

namespace ppms {
namespace {

TEST(ModArith, ModmulSmall) {
  EXPECT_EQ(modmul(Bigint(7), Bigint(8), Bigint(10)), Bigint(6));
  EXPECT_EQ(modmul(Bigint(-7), Bigint(8), Bigint(10)), Bigint(4));
  EXPECT_THROW(modmul(Bigint(1), Bigint(1), Bigint(0)), std::domain_error);
}

TEST(ModExp, SmallKnownValues) {
  EXPECT_EQ(modexp(Bigint(2), Bigint(10), Bigint(1000)), Bigint(24));
  EXPECT_EQ(modexp(Bigint(3), Bigint(0), Bigint(7)), Bigint(1));
  EXPECT_EQ(modexp(Bigint(0), Bigint(5), Bigint(7)), Bigint(0));
  EXPECT_EQ(modexp(Bigint(5), Bigint(3), Bigint(1)), Bigint(0));
}

TEST(ModExp, NegativeBaseReduced) {
  // (-2)^3 mod 7 == -8 mod 7 == 6.
  EXPECT_EQ(modexp(Bigint(-2), Bigint(3), Bigint(7)), Bigint(6));
}

TEST(ModExp, NegativeExponentThrows) {
  EXPECT_THROW(modexp_binary(Bigint(2), Bigint(-1), Bigint(7)),
               std::invalid_argument);
  EXPECT_THROW(modexp_window(Bigint(2), Bigint(-1), Bigint(7)),
               std::invalid_argument);
}

TEST(ModExp, FermatLittleTheorem) {
  // a^(p-1) == 1 mod p for prime p and gcd(a, p) == 1.
  const Bigint p = Bigint::from_decimal(
      "170141183460469231731687303715884105727");  // 2^127 - 1, prime
  SecureRandom rng(60);
  for (int i = 0; i < 10; ++i) {
    const Bigint a = Bigint::random_range(rng, Bigint(2), p);
    EXPECT_EQ(modexp(a, p - Bigint(1), p), Bigint(1));
  }
}

class ModExpStrategies : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModExpStrategies, AllStrategiesAgree) {
  SecureRandom rng(GetParam());
  for (int i = 0; i < 8; ++i) {
    Bigint m = Bigint::random_bits(rng, 256);
    if (m.is_even()) m += Bigint(1);
    const Bigint base = Bigint::random_bits(rng, 300);
    const Bigint exp = Bigint::random_bits(rng, 128);
    const Bigint r1 = modexp_binary(base, exp, m);
    const Bigint r2 = modexp_window(base, exp, m);
    const Bigint r3 = fp_ctx(m)->pow(base, exp);
    const Bigint r4 = modexp(base, exp, m);
    EXPECT_EQ(r1, r2);
    EXPECT_EQ(r1, r3);
    EXPECT_EQ(r1, r4);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModExpStrategies,
                         ::testing::Values(101, 102, 103));

TEST(ModExp, EvenModulusFallsBackCorrectly) {
  // FpCtx cannot hold even moduli; the facade must still be right.
  const Bigint m = Bigint::from_decimal("1000000000000000000000000");  // even
  const Bigint r = modexp(Bigint(3), Bigint(100), m);
  EXPECT_EQ(r, modexp_binary(Bigint(3), Bigint(100), m));
}

TEST(ModExp, ModulusOneCanonicalZeroAllStrategies) {
  // x mod 1 == 0 for every x; all three entry points must return the
  // canonical zero (empty limb vector), not a denormalized one.
  for (const auto& base : {Bigint(0), Bigint(5), Bigint(-3)}) {
    for (const auto& exp : {Bigint(0), Bigint(1), Bigint(100)}) {
      EXPECT_EQ(modexp(base, exp, Bigint(1)), Bigint());
      EXPECT_EQ(modexp_binary(base, exp, Bigint(1)), Bigint());
      EXPECT_EQ(modexp_window(base, exp, Bigint(1)), Bigint());
    }
  }
}

TEST(ModExp, NonPositiveModulusThrows) {
  EXPECT_THROW(modexp(Bigint(2), Bigint(3), Bigint(0)), std::domain_error);
  EXPECT_THROW(modexp(Bigint(2), Bigint(3), Bigint(-5)), std::domain_error);
}

TEST(ModExp, EvenModulusLargeExponentDispatch) {
  // Montgomery needs odd moduli; the facade must route even moduli to the
  // window ladder no matter how large the exponent gets.
  SecureRandom rng(105);
  for (int i = 0; i < 4; ++i) {
    Bigint m = Bigint::random_bits(rng, 256);
    if (m.is_odd()) m += Bigint(1);
    const Bigint base = Bigint::random_bits(rng, 256);
    const Bigint exp = Bigint::random_bits(rng, 512);
    EXPECT_EQ(modexp(base, exp, m), modexp_binary(base, exp, m));
  }
}

TEST(ModExp, ExplicitContextMatchesFacade) {
  SecureRandom rng(106);
  Bigint m = Bigint::random_bits(rng, 512);
  if (m.is_even()) m += Bigint(1);
  const auto ctx = fp_ctx(m);
  for (int i = 0; i < 8; ++i) {
    const Bigint base = Bigint::random_bits(rng, 600);
    const Bigint exp = Bigint::random_bits(rng, 256);
    EXPECT_EQ(modexp(base, exp, *ctx), modexp_binary(base, exp, m));
  }
  EXPECT_THROW(modexp(Bigint(2), Bigint(-1), *ctx), std::invalid_argument);
}

TEST(MontgomeryCache, SharesOneContextPerModulus) {
  fp_ctx_cache_clear();
  const Bigint m(1000003);
  const auto a = fp_ctx(m);
  const auto b = fp_ctx(m);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(fp_ctx_cache_size(), 1u);
  fp_ctx_cache_clear();
  EXPECT_EQ(fp_ctx_cache_size(), 0u);
}

TEST(MontgomeryCache, RejectsDegenerateModuli) {
  EXPECT_THROW(fp_ctx(Bigint(10)), std::invalid_argument);  // even
  EXPECT_THROW(fp_ctx(Bigint(1)), std::invalid_argument);
  EXPECT_THROW(fp_ctx(Bigint(-7)), std::invalid_argument);
  EXPECT_THROW(fp_ctx(Bigint::two_pow(2048) + Bigint(1)),  // too wide
               std::invalid_argument);
}

TEST(MontgomeryCache, CapacityStaysBounded) {
  fp_ctx_cache_clear();
  for (int i = 0; i < 200; ++i) {
    (void)fp_ctx(Bigint(1000003 + 2 * i));
  }
  EXPECT_LE(fp_ctx_cache_size(), 64u);
  fp_ctx_cache_clear();
}

TEST(FixedBasePow, MatchesGeneralModexp) {
  SecureRandom rng(110);
  Bigint m = Bigint::random_bits(rng, 512);
  if (m.is_even()) m += Bigint(1);
  const Bigint base = Bigint::random_below(rng, m);
  const FixedBasePow table(fp_ctx(m), base, 256);
  for (int i = 0; i < 10; ++i) {
    const Bigint exp = Bigint::random_bits(rng, 256);
    EXPECT_EQ(table.pow(exp), modexp_binary(base, exp, m));
  }
  // Edge exponents.
  EXPECT_EQ(table.pow(Bigint(0)), Bigint(1));
  EXPECT_EQ(table.pow(Bigint(1)), base);
  EXPECT_THROW(table.pow(Bigint(-1)), std::invalid_argument);
  // Exponents beyond the table width fall back to the plain ladder.
  const Bigint wide = Bigint::random_bits(rng, 400);
  EXPECT_EQ(table.pow(wide), modexp_binary(base, wide, m));
}

TEST(Montgomery, ReduceMatchesPlainProductAtWordBoundaries) {
  // a·b with both operands just below the modulus lands near the m·R
  // in-domain ceiling — the regime where a missed final subtraction or a
  // carry overrun would first show. 96 and 160 bits have an odd number of
  // 32-bit limbs, so their top 64-bit limb is half empty.
  SecureRandom rng(108);
  for (const int bits : {96, 128, 160, 512, 2048}) {
    Bigint m = Bigint::random_bits(rng, static_cast<std::size_t>(bits));
    if (m.is_even()) m += Bigint(1);
    const FpCtx ctx(m);
    const Bigint a = m - Bigint(1);
    const Bigint b = m - Bigint(2);
    FpElem r;
    ctx.mul(r, ctx.to_mont(a), ctx.to_mont(b));
    EXPECT_EQ(ctx.from_mont(r), (a * b).mod(m)) << bits;
  }
}

TEST(Montgomery, MulHandlesModulusBeyondStackBuffer) {
  // FpCtx's stack accumulators hold kMaxFpLimbs limbs: a full 2048-bit
  // modulus fills them exactly, and anything wider must be refused (the
  // facade then takes the division-based window).
  SecureRandom rng(110);
  Bigint m = Bigint::random_bits(rng, 2047) + Bigint::two_pow(2047);
  if (m.is_even()) m += Bigint(1);
  const FpCtx ctx(m);
  EXPECT_EQ(ctx.limbs(), limb::kMaxFpLimbs);
  const Bigint a = Bigint::random_below(rng, m);
  const Bigint b = Bigint::random_below(rng, m);
  FpElem r;
  ctx.mul(r, ctx.to_mont(a), ctx.to_mont(b));
  EXPECT_EQ(ctx.from_mont(r), (a * b).mod(m));

  Bigint wide = Bigint::random_bits(rng, 3072);
  if (wide.is_even()) wide += Bigint(1);
  EXPECT_THROW(FpCtx{wide}, std::invalid_argument);
  const Bigint exp = Bigint::random_bits(rng, 64);
  EXPECT_EQ(modexp(a, exp, wide), modexp_binary(a, exp, wide));
}

TEST(Montgomery, RejectsBadModulus) {
  EXPECT_THROW(FpCtx{Bigint(10)}, std::invalid_argument);  // even
  EXPECT_THROW(FpCtx{Bigint(1)}, std::invalid_argument);
  EXPECT_THROW(FpCtx{Bigint(-7)}, std::invalid_argument);
}

TEST(Montgomery, ToFromRoundTrip) {
  SecureRandom rng(70);
  Bigint m = Bigint::random_bits(rng, 512);
  if (m.is_even()) m += Bigint(1);
  const FpCtx ctx(m);
  for (int i = 0; i < 20; ++i) {
    const Bigint x = Bigint::random_below(rng, m);
    EXPECT_EQ(ctx.from_mont(ctx.to_mont(x)), x);
  }
}

TEST(Montgomery, MulMatchesPlainModmul) {
  SecureRandom rng(71);
  Bigint m = Bigint::random_bits(rng, 384);
  if (m.is_even()) m += Bigint(1);
  const FpCtx ctx(m);
  for (int i = 0; i < 20; ++i) {
    const Bigint a = Bigint::random_below(rng, m);
    const Bigint b = Bigint::random_below(rng, m);
    FpElem r;
    ctx.mul(r, ctx.to_mont(a), ctx.to_mont(b));
    EXPECT_EQ(ctx.from_mont(r), (a * b).mod(m));
  }
}

TEST(Montgomery, PowEdgeExponents) {
  const FpCtx ctx(Bigint(1000003));
  EXPECT_EQ(ctx.pow(Bigint(5), Bigint(0)), Bigint(1));
  EXPECT_EQ(ctx.pow(Bigint(5), Bigint(1)), Bigint(5));
  EXPECT_EQ(ctx.pow(Bigint(2), Bigint(20)), Bigint(1048576 % 1000003));
  EXPECT_THROW(ctx.pow(Bigint(2), Bigint(-1)), std::invalid_argument);
}

TEST(ModSqrt, FastPathPrime3Mod4) {
  SecureRandom rng(200);
  const Bigint p(1000003);  // ≡ 3 (mod 4)
  for (int i = 0; i < 30; ++i) {
    const Bigint a = Bigint::random_range(rng, Bigint(1), p);
    const Bigint sq = (a * a).mod(p);
    const auto r = mod_sqrt(sq, p, rng);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(((*r) * (*r)).mod(p), sq);
  }
}

TEST(ModSqrt, TonelliShanksPrime1Mod4) {
  SecureRandom rng(201);
  const Bigint p(1000033);  // ≡ 1 (mod 4): the general path
  for (int i = 0; i < 30; ++i) {
    const Bigint a = Bigint::random_range(rng, Bigint(1), p);
    const Bigint sq = (a * a).mod(p);
    const auto r = mod_sqrt(sq, p, rng);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(((*r) * (*r)).mod(p), sq);
  }
}

TEST(ModSqrt, HighTwoAdicityPrime) {
  // p - 1 = q·2^s with large s stresses the loop: 97 has s = 5; also use
  // a 64-bit Proth-like prime 13·2^20 + 1 = 13631489.
  SecureRandom rng(202);
  for (const std::int64_t pv : {97LL, 13631489LL}) {
    const Bigint p(pv);
    for (int i = 1; i <= 20; ++i) {
      const Bigint sq = (Bigint(i) * Bigint(i)).mod(p);
      const auto r = mod_sqrt(sq, p, rng);
      ASSERT_TRUE(r.has_value()) << pv << " " << i;
      EXPECT_EQ(((*r) * (*r)).mod(p), sq);
    }
  }
}

TEST(ModSqrt, NonResidueReturnsNullopt) {
  SecureRandom rng(203);
  const Bigint p(1000033);
  int nullopts = 0;
  for (int i = 0; i < 40; ++i) {
    const Bigint a = Bigint::random_range(rng, Bigint(1), p);
    if (!mod_sqrt(a, p, rng).has_value()) ++nullopts;
  }
  EXPECT_GT(nullopts, 5);  // about half should be non-residues
}

TEST(ModSqrt, ZeroAndBadModulus) {
  SecureRandom rng(204);
  EXPECT_EQ(mod_sqrt(Bigint(0), Bigint(97), rng), Bigint(0));
  EXPECT_THROW(mod_sqrt(Bigint(1), Bigint(8), rng), std::invalid_argument);
  EXPECT_THROW(mod_sqrt(Bigint(1), Bigint(1), rng), std::invalid_argument);
}

TEST(ModSqrt, AgreesWithFpSqrtOnSharedDomain) {
  SecureRandom rng(205);
  const Bigint p = random_prime(rng, 64);
  if ((p % Bigint(4)).to_u64() == 3) {
    const Bigint a = Bigint::random_below(rng, p);
    const Bigint sq = (a * a).mod(p);
    const auto r = mod_sqrt(sq, p, rng);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(((*r) * (*r)).mod(p), sq);
  }
}

TEST(Isqrt, ExactSquaresAndNeighbours) {
  for (const std::int64_t v : {0LL, 1LL, 2LL, 3LL, 4LL, 99LL, 100LL,
                               101LL, 1LL << 40}) {
    const Bigint n(v);
    const Bigint s = isqrt(n);
    EXPECT_LE(s * s, n);
    EXPECT_GT((s + Bigint(1)) * (s + Bigint(1)), n);
  }
  EXPECT_THROW(isqrt(Bigint(-1)), std::domain_error);
}

TEST(Isqrt, LargeValueProperty) {
  SecureRandom rng(206);
  for (int i = 0; i < 10; ++i) {
    const Bigint n = Bigint::random_bits(rng, 500);
    const Bigint s = isqrt(n);
    EXPECT_LE(s * s, n);
    EXPECT_GT((s + Bigint(1)) * (s + Bigint(1)), n);
  }
  // Perfect square round trip.
  const Bigint a = Bigint::random_bits(rng, 300);
  EXPECT_EQ(isqrt(a * a), a);
}

TEST(Montgomery, RsaStyleRoundTrip) {
  // Tiny RSA relation exercises a full enc/dec cycle through modexp and
  // through the modulus's own context.
  const Bigint p(61), q(53);
  const Bigint n = p * q;                       // 3233
  const Bigint e(17), d(413);  // e*d == 1 mod lambda(n) == 780
  const Bigint msg(65);
  const Bigint c = modexp(msg, e, n);
  EXPECT_EQ(modexp(c, d, n), msg);
  const FpCtx ctx(n);
  EXPECT_EQ(ctx.pow(ctx.pow(msg, e), d), msg);
}

}  // namespace
}  // namespace ppms
