#include "pairing/tate.h"

#include <gtest/gtest.h>

#include "pairing/pipeline.h"

namespace ppms {
namespace {

const TypeAParams& params() {
  static const TypeAParams prm = [] {
    SecureRandom rng(77);
    return typea_generate(rng, 48, 128);
  }();
  return prm;
}

TEST(TateTest, PairingValueHasOrderR) {
  SecureRandom rng(1);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  const Fp2 e = tate_pairing_affine(params(), P, Q);
  EXPECT_TRUE(fp2_is_one(fp2_pow(e, params().r, params().p)));
}

TEST(TateTest, NonDegenerateOnGenerator) {
  const Fp2 e = tate_pairing_affine(params(), params().g, params().g);
  EXPECT_FALSE(fp2_is_one(e));
}

TEST(TateTest, BilinearInFirstArgument) {
  SecureRandom rng(2);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  const Bigint a(12345);
  const Fp2 lhs = tate_pairing_affine(params(), ec_mul(P, a, params().p), Q);
  const Fp2 rhs = fp2_pow(tate_pairing_affine(params(), P, Q), a, params().p);
  EXPECT_EQ(lhs, rhs);
}

TEST(TateTest, BilinearInSecondArgument) {
  SecureRandom rng(3);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  const Bigint b(6789);
  const Fp2 lhs = tate_pairing_affine(params(), P, ec_mul(Q, b, params().p));
  const Fp2 rhs = fp2_pow(tate_pairing_affine(params(), P, Q), b, params().p);
  EXPECT_EQ(lhs, rhs);
}

TEST(TateTest, JointBilinearity) {
  // ê(aP, bQ) == ê(P, Q)^{ab} — the property every CL verification
  // equation rests on.
  SecureRandom rng(4);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  const Bigint a = Bigint::random_range(rng, Bigint(1), params().r);
  const Bigint b = Bigint::random_range(rng, Bigint(1), params().r);
  const Fp2 lhs = tate_pairing_affine(params(), ec_mul(P, a, params().p),
                               ec_mul(Q, b, params().p));
  const Fp2 rhs =
      fp2_pow(tate_pairing_affine(params(), P, Q), (a * b).mod(params().r),
              params().p);
  EXPECT_EQ(lhs, rhs);
}

TEST(TateTest, SymmetricPairing) {
  // With the distortion map the modified pairing is symmetric.
  SecureRandom rng(5);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  EXPECT_EQ(tate_pairing_affine(params(), P, Q),
            tate_pairing_affine(params(), Q, P));
}

TEST(TateTest, InfinityMapsToOne) {
  SecureRandom rng(6);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  EXPECT_TRUE(
      fp2_is_one(tate_pairing_affine(params(), P, EcPoint::at_infinity())));
  EXPECT_TRUE(
      fp2_is_one(tate_pairing_affine(params(), EcPoint::at_infinity(), P)));
}

TEST(TateTest, MultiplicativeHomomorphism) {
  // ê(P1 + P2, Q) == ê(P1, Q) · ê(P2, Q).
  SecureRandom rng(7);
  const EcPoint P1 = typea_random_subgroup_point(params(), rng);
  const EcPoint P2 = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  const Fp2 lhs = tate_pairing_affine(params(), ec_add(P1, P2, params().p), Q);
  const Fp2 rhs = fp2_mul(tate_pairing_affine(params(), P1, Q),
                          tate_pairing_affine(params(), P2, Q), params().p);
  EXPECT_EQ(lhs, rhs);
}

TEST(TateTest, RejectsOffCurveInput) {
  SecureRandom rng(8);
  EcPoint bad = typea_random_subgroup_point(params(), rng);
  bad.x = fp_add(bad.x, Bigint(1), params().p);
  EXPECT_THROW(tate_pairing_affine(params(), bad, params().g),
               std::invalid_argument);
}

TEST(TateTest, ProjectiveMatchesAffineBitExact) {
  // The engine's Jacobian Miller loop scales every line value by a factor
  // in F_p*; the final exponentiation must kill all of them, leaving the
  // output bit-for-bit equal to the affine loop's.
  const PairingEngine engine(params());
  SecureRandom rng(10);
  for (int i = 0; i < 8; ++i) {
    const EcPoint P = typea_random_subgroup_point(params(), rng);
    const EcPoint Q = typea_random_subgroup_point(params(), rng);
    const Fp2 proj = engine.pair(P, Q);
    const Fp2 aff = tate_pairing_affine(params(), P, Q);
    EXPECT_EQ(fp2_serialize(proj, params().p),
              fp2_serialize(aff, params().p));
  }
  // Scalar multiples of the generator hit the V == ±P special cases of
  // the addition step at the loop's tail.
  for (const std::int64_t k : {1LL, 2LL, 3LL, 7LL}) {
    const EcPoint P = ec_mul(params().g, Bigint(k), params().p);
    EXPECT_EQ(fp2_serialize(engine.pair(P, params().g), params().p),
              fp2_serialize(tate_pairing_affine(params(), P, params().g),
                            params().p));
  }
}

TEST(TateTest, ProjectiveLoopPerformsExactlyOneInversion) {
  SecureRandom rng(11);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  const PairingEngine engine(params());
  // Warm up so lazily-built fixtures don't pollute the counter.
  (void)engine.pair(P, Q);
  const std::uint64_t before = fp_inv_calls();
  (void)engine.pair(P, Q);
  // Zero inversions per Miller step: the only one is the fp2_inv inside
  // the final exponentiation.
  EXPECT_EQ(fp_inv_calls() - before, 1u);
  // The affine loop, by contrast, inverts on (nearly) every step.
  const std::uint64_t before_affine = fp_inv_calls();
  (void)tate_pairing_affine(params(), P, Q);
  EXPECT_GT(fp_inv_calls() - before_affine, params().r.bit_length() / 2);
}

TEST(TateTest, DistinctPointsDistinctValues) {
  // Pairing against the generator is injective on the subgroup.
  SecureRandom rng(9);
  const EcPoint P = ec_mul(params().g, Bigint(2), params().p);
  const EcPoint Q = ec_mul(params().g, Bigint(3), params().p);
  EXPECT_FALSE(tate_pairing_affine(params(), P, params().g) ==
               tate_pairing_affine(params(), Q, params().g));
}

}  // namespace
}  // namespace ppms
