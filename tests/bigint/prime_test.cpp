#include "bigint/prime.h"

#include <gtest/gtest.h>

#include "bigint/modarith.h"

namespace ppms {
namespace {

TEST(PrimeTest, SmallPrimesTableSane) {
  const auto& primes = small_primes();
  EXPECT_EQ(primes.front(), 2u);
  EXPECT_EQ(primes[1], 3u);
  EXPECT_LT(primes.back(), 2048u);
  // pi(2048) == 309.
  EXPECT_EQ(primes.size(), 309u);
}

TEST(PrimeTest, HasSmallFactor) {
  EXPECT_TRUE(has_small_factor(Bigint(15)));
  EXPECT_FALSE(has_small_factor(Bigint(13)));  // 13 itself is in the table
  // 2048th-ish prime squared-ish value with no small factor: 2053 * 2063.
  EXPECT_FALSE(has_small_factor(Bigint(2053) * Bigint(2063)));
}

TEST(PrimeTest, KnownPrimesPass) {
  SecureRandom rng(1);
  for (const std::int64_t p :
       {2LL, 3LL, 5LL, 97LL, 7919LL, 1000003LL, 2147483647LL}) {
    EXPECT_TRUE(is_probable_prime(Bigint(p), rng)) << p;
  }
  // 2^127 - 1 (Mersenne prime).
  EXPECT_TRUE(is_probable_prime(
      Bigint::from_decimal("170141183460469231731687303715884105727"), rng));
}

TEST(PrimeTest, KnownCompositesFail) {
  SecureRandom rng(2);
  for (const std::int64_t n :
       {0LL, 1LL, 4LL, 100LL, 7917LL, 2147483647LL * 2}) {
    EXPECT_FALSE(is_probable_prime(Bigint(n), rng)) << n;
  }
  EXPECT_FALSE(is_probable_prime(Bigint(-7), rng));
}

TEST(PrimeTest, CarmichaelNumbersRejected) {
  // Fermat pseudoprimes to every base; Miller-Rabin must still reject.
  SecureRandom rng(3);
  for (const std::int64_t n : {561LL, 1105LL, 1729LL, 41041LL, 825265LL,
                               321197185LL}) {
    EXPECT_FALSE(is_probable_prime(Bigint(n), rng)) << n;
  }
}

TEST(PrimeTest, LargeSemiprimeRejected) {
  SecureRandom rng(4);
  const Bigint p = random_prime(rng, 128);
  const Bigint q = random_prime(rng, 128);
  EXPECT_FALSE(is_probable_prime(p * q, rng));
}

class RandomPrimeWidths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RandomPrimeWidths, ExactBitLengthAndPrime) {
  SecureRandom rng(GetParam());
  const Bigint p = random_prime(rng, GetParam());
  EXPECT_EQ(p.bit_length(), GetParam());
  EXPECT_TRUE(is_probable_prime(p, rng));
}

INSTANTIATE_TEST_SUITE_P(Bits, RandomPrimeWidths,
                         ::testing::Values(8, 16, 32, 64, 128, 256));

TEST(PrimeTest, RandomPrimeRejectsTinyWidth) {
  SecureRandom rng(5);
  EXPECT_THROW(random_prime(rng, 1), std::invalid_argument);
}

TEST(PrimeTest, SafePrimeStructure) {
  SecureRandom rng(6);
  const Bigint p = random_safe_prime(rng, 64);
  EXPECT_EQ(p.bit_length(), 64u);
  EXPECT_TRUE(is_probable_prime(p, rng));
  const Bigint q = (p - Bigint(1)) / Bigint(2);
  EXPECT_TRUE(is_probable_prime(q, rng));
}

TEST(PrimeTest, MillerRabinRoundWitnessDetectsComposite) {
  // 2 is a Miller-Rabin witness for 221 = 13 * 17.
  EXPECT_FALSE(miller_rabin_round(Bigint(221), Bigint(2)));
  // ...but 174 is a strong liar for 221.
  EXPECT_TRUE(miller_rabin_round(Bigint(221), Bigint(174)));
}

// Textbook Miller-Rabin round on the modexp_binary ladder.
bool reference_round(const Bigint& n, const Bigint& base) {
  const Bigint n_minus_1 = n - Bigint(1);
  Bigint d = n_minus_1;
  std::size_t s = 0;
  while (d.is_even()) {
    d = d >> 1;
    ++s;
  }
  Bigint x = modexp_binary(base, d, n);
  if (x.is_one() || x == n_minus_1) return true;
  for (std::size_t i = 1; i < s; ++i) {
    x = (x * x).mod(n);
    if (x == n_minus_1) return true;
  }
  return false;
}

TEST(PrimeTest, OddLimbWidthsMatchReferenceRounds) {
  // Candidates with an odd number of 32-bit limbs, which ran on a separate
  // 32-bit Montgomery kernel until FpCtx became the only one.
  SecureRandom rng(93);
  for (const std::size_t bits : {std::size_t{65}, std::size_t{71},
                                 std::size_t{96}, std::size_t{160}}) {
    const Bigint p = random_prime(rng, bits);
    const Bigint q = random_prime(rng, bits);
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(is_probable_prime(p, rng)) << bits;
    EXPECT_FALSE(is_probable_prime(p * q, rng)) << bits;
    Bigint odd = Bigint::random_bits(rng, bits - 1) + Bigint::two_pow(bits - 1);
    if (odd.is_even()) odd += Bigint(1);
    for (const Bigint& n : {p, p * q, odd}) {
      for (int i = 0; i < 4; ++i) {
        const Bigint base =
            Bigint::random_range(rng, Bigint(2), n - Bigint(2));
        EXPECT_EQ(miller_rabin_round(n, base), reference_round(n, base))
            << bits << "-bit n=" << n.to_hex();
      }
    }
  }
}

}  // namespace
}  // namespace ppms
