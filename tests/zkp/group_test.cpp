#include "zkp/group.h"

#include <gtest/gtest.h>

#include "bigint/modarith.h"
#include "bigint/prime.h"

namespace ppms {
namespace {

// Shared fixtures: one safe-prime Zn group, one curve-based pair.
const ZnGroup& zn() {
  static const ZnGroup g = [] {
    SecureRandom rng(11);
    const Bigint p = random_safe_prime(rng, 96);
    return ZnGroup::quadratic_residues(p, rng);
  }();
  return g;
}

const TypeAParams& params() {
  static const TypeAParams prm = [] {
    SecureRandom rng(12);
    return typea_generate(rng, 48, 128);
  }();
  return prm;
}

// Generic algebraic laws every Group implementation must satisfy.
void check_group_laws(const Group& g, const Bytes& gen, SecureRandom& rng) {
  ASSERT_TRUE(g.contains(gen));
  const Bytes id = g.identity();
  EXPECT_EQ(g.op(gen, id), gen);
  EXPECT_EQ(g.op(id, gen), gen);
  EXPECT_EQ(g.op(gen, g.inv(gen)), id);
  // Exponent laws.
  const Bigint a = Bigint::random_below(rng, g.order());
  const Bigint b = Bigint::random_below(rng, g.order());
  EXPECT_EQ(g.op(g.pow(gen, a), g.pow(gen, b)),
            g.pow(gen, (a + b).mod(g.order())));
  EXPECT_EQ(g.pow(g.pow(gen, a), b), g.pow(gen, (a * b).mod(g.order())));
  // Order annihilates.
  EXPECT_EQ(g.pow(gen, g.order()), id);
  // Negative exponents reduce.
  EXPECT_EQ(g.pow(gen, Bigint(-1)), g.inv(gen));
  // Membership of powers.
  EXPECT_TRUE(g.contains(g.pow(gen, a)));
}

TEST(ZnGroupTest, SatisfiesGroupLaws) {
  SecureRandom rng(1);
  check_group_laws(zn(), zn().generator(), rng);
}

TEST(ZnGroupTest, RejectsNonMembers) {
  // Zero, the modulus width mismatch, and a quadratic non-residue.
  EXPECT_FALSE(zn().contains(Bytes(3, 0)));
  EXPECT_FALSE(zn().contains(zn().encode(Bigint(0))));
  // -1 is a non-residue mod a safe prime p ≡ 3 (mod 4).
  const Bigint minus1 = zn().modulus() - Bigint(1);
  if ((zn().modulus() % Bigint(4)).to_u64() == 3) {
    EXPECT_FALSE(zn().contains(zn().encode(minus1)));
  }
}

TEST(ZnGroupTest, ConstructionValidatesGenerator) {
  EXPECT_THROW(ZnGroup(Bigint(23), Bigint(11), Bigint(1)),
               std::invalid_argument);
  EXPECT_THROW(ZnGroup(Bigint(23), Bigint(11), Bigint(23)),
               std::invalid_argument);
  // 5 has order 22 mod 23, not 11.
  EXPECT_THROW(ZnGroup(Bigint(23), Bigint(11), Bigint(5)),
               std::invalid_argument);
  // 2 is a QR mod 23 (order 11): fine.
  EXPECT_NO_THROW(ZnGroup(Bigint(23), Bigint(11), Bigint(2)));
}

TEST(ZnGroupTest, EncodeDecodeRoundTrip) {
  const Bigint x(123456);
  EXPECT_EQ(zn().decode(zn().encode(x)), x);
  EXPECT_THROW(zn().decode(Bytes(1)), std::invalid_argument);
}

TEST(EcGroupTest, SatisfiesGroupLaws) {
  SecureRandom rng(2);
  const EcGroup g(params());
  check_group_laws(g, g.generator(), rng);
}

TEST(EcGroupTest, RejectsPointOutsideSubgroup) {
  const EcGroup g(params());
  SecureRandom rng(3);
  // A random curve point is in the full group of order r·h; with
  // overwhelming probability it is NOT in the order-r subgroup.
  const EcPoint raw = ec_random_point(rng, params().p);
  if (!ec_mul(raw, params().r, params().p).infinity) {
    EXPECT_FALSE(g.contains(g.encode(raw)));
  }
  EXPECT_FALSE(g.contains(Bytes(5, 1)));
}

TEST(GtGroupTest, SatisfiesGroupLaws) {
  SecureRandom rng(4);
  const GtGroup g(params());
  const Bytes gen = g.pair(params().g, params().g);
  check_group_laws(g, gen, rng);
}

TEST(GtGroupTest, PairGivesSubgroupElement) {
  SecureRandom rng(5);
  const GtGroup g(params());
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  EXPECT_TRUE(g.contains(g.pair(P, params().g)));
}

TEST(GtGroupTest, RejectsNonMembers) {
  const GtGroup g(params());
  EXPECT_FALSE(g.contains(Bytes(3)));
  // A random Fp2 element is almost surely not in the order-r subgroup.
  SecureRandom rng(6);
  const Fp2 x{Bigint::random_below(rng, params().p),
              Bigint::random_below(rng, params().p)};
  if (!fp2_is_one(fp2_pow(x, params().r, params().p))) {
    EXPECT_FALSE(g.contains(g.encode(x)));
  }
}

TEST(GtGroupTest, RejectsFieldTheEngineCannotServe) {
  // An even p still passes TypeAParams::deserialize's r·h = p + 1 check
  // (p = 10, r = 11, h = 1 here), but no Montgomery context exists for it:
  // the group must refuse it rather than fall back to another code path.
  TypeAParams even;
  even.p = Bigint(10);
  even.r = Bigint(11);
  even.h = Bigint(1);
  even.g = EcPoint::at_infinity();
  const TypeAParams parsed = TypeAParams::deserialize(even.serialize());
  EXPECT_EQ(parsed.p, Bigint(10));
  EXPECT_THROW(GtGroup{parsed}, std::invalid_argument);
  EXPECT_THROW(PairingEngine{parsed}, std::invalid_argument);
}

// Shamir double exponentiation must agree with the two-pows-and-an-op
// definition in every group, including degenerate exponents.
void check_pow2(const Group& g, const Bytes& b1, const Bytes& b2,
                SecureRandom& rng) {
  for (int i = 0; i < 5; ++i) {
    const Bigint e1 = Bigint::random_below(rng, g.order());
    const Bigint e2 = Bigint::random_below(rng, g.order());
    EXPECT_EQ(g.pow2(b1, e1, b2, e2), g.op(g.pow(b1, e1), g.pow(b2, e2)));
  }
  EXPECT_EQ(g.pow2(b1, Bigint(0), b2, Bigint(0)), g.identity());
  EXPECT_EQ(g.pow2(b1, Bigint(1), b2, Bigint(0)), b1);
  EXPECT_EQ(g.pow2(b1, Bigint(0), b2, Bigint(1)), b2);
  EXPECT_EQ(g.pow2(b1, g.order(), b2, g.order()), g.identity());
  // Negative exponents reduce mod the order, matching pow.
  EXPECT_EQ(g.pow2(b1, Bigint(-1), b2, Bigint(2)),
            g.op(g.inv(b1), g.pow(b2, Bigint(2))));
}

TEST(ZnGroupTest, PowGenMatchesGeneratorPow) {
  SecureRandom rng(23);
  const ZnGroup& g = zn();
  // Random exponents, including ones far above the order.
  for (int i = 0; i < 8; ++i) {
    const Bigint e = Bigint::random_below(rng, g.order() * g.order());
    EXPECT_EQ(g.pow_gen(e), g.pow(g.generator(), e));
  }
  // Edge exponents: zero, one, order-1, order, order+1.
  EXPECT_EQ(g.pow_gen(Bigint(0)), g.identity());
  EXPECT_EQ(g.pow_gen(Bigint(1)), g.generator());
  EXPECT_EQ(g.pow_gen(g.order() - Bigint(1)), g.inv(g.generator()));
  EXPECT_EQ(g.pow_gen(g.order()), g.identity());
  EXPECT_EQ(g.pow_gen(g.order() + Bigint(1)), g.generator());
  // A copy taken before/after the lazy build agrees with the original.
  const ZnGroup copy = g;
  const Bigint e = Bigint::random_below(rng, g.order());
  EXPECT_EQ(copy.pow_gen(e), g.pow(g.generator(), e));
}

TEST(ZnGroupTest, OddLimbWidthModuliMatchBinaryLadder) {
  // Moduli with an odd number of 32-bit limbs, which ran on a separate
  // 32-bit Montgomery kernel until FpCtx became the only one. The group is
  // the quadratic residues of a prime p, of order (p-1)/2.
  SecureRandom rng(4242);
  for (const std::size_t bits : {std::size_t{65}, std::size_t{71},
                                 std::size_t{96}, std::size_t{160}}) {
    const Bigint p = random_prime(rng, bits);
    const Bigint q = (p - Bigint(1)) >> 1;
    const Bigint x = Bigint::random_range(rng, Bigint(2), p - Bigint(1));
    const Bigint g = (x * x).mod(p);
    const ZnGroup G(p, q, g);
    for (int i = 0; i < 4; ++i) {
      const Bigint a = Bigint::random_range(rng, Bigint(1), p);
      const Bigint b = Bigint::random_range(rng, Bigint(1), p);
      const Bigint e1 = Bigint::random_bits(rng, bits + 8);
      const Bigint e2 = Bigint::random_bits(rng, bits);
      const Bigint a_e1 = modexp_binary(a, e1.mod(q), p);
      EXPECT_EQ(G.decode(G.pow(G.encode(a), e1)), a_e1) << bits;
      EXPECT_EQ(G.decode(G.pow2(G.encode(a), e1, G.encode(b), e2)),
                (a_e1 * modexp_binary(b, e2.mod(q), p)).mod(p))
          << bits;
      EXPECT_EQ(G.decode(G.pow_gen(e1)), modexp_binary(g, e1.mod(q), p))
          << bits;
      EXPECT_EQ(G.contains(G.encode(a)), modexp_binary(a, q, p).is_one())
          << bits;
    }
    EXPECT_TRUE(G.contains(G.encode(g)));
  }
}

TEST(ZnGroupTest, Pow2MatchesTwoPows) {
  SecureRandom rng(21);
  const Bytes b1 = zn().generator();
  const Bytes b2 = zn().pow(b1, Bigint::random_below(rng, zn().order()));
  check_pow2(zn(), b1, b2, rng);
}

TEST(EcGroupTest, Pow2MatchesTwoPows) {
  SecureRandom rng(22);
  const EcGroup g(params());
  const Bytes b1 = g.generator();
  const Bytes b2 = g.pow(b1, Bigint::random_below(rng, g.order()));
  check_pow2(g, b1, b2, rng);
}

TEST(EcGroupTest, Pow2MatchesAffineOracle) {
  SecureRandom rng(23);
  const EcGroup g(params());
  const Bigint& r = params().r;
  const Bigint& p = params().p;
  const EcPoint a = params().g;
  const EcPoint b = typea_random_subgroup_point(params(), rng);
  const std::vector<Bigint> exps = {Bigint(0), Bigint(1), r - Bigint(1),
                                    r, Bigint(-5),
                                    Bigint::random_below(rng, r),
                                    Bigint::random_bits(rng, 2 * 48)};
  for (const Bigint& e1 : exps) {
    for (const Bigint& e2 : exps) {
      const EcPoint want = ec_add(ec_mul_affine(a, e1.mod(r), p),
                                  ec_mul_affine(b, e2.mod(r), p), p);
      EXPECT_EQ(g.decode(g.pow2(g.encode(a), e1, g.encode(b), e2)), want);
    }
  }
  // Equal bases: the sum doubles inside ec_add.
  EXPECT_EQ(g.decode(g.pow2(g.encode(a), Bigint(3), g.encode(a), Bigint(3))),
            ec_mul_affine(a, Bigint(6), p));
}

TEST(GtGroupTest, Pow2MatchesTwoPows) {
  SecureRandom rng(23);
  const GtGroup g(params());
  const Bytes b1 = g.pair(params().g, params().g);
  const Bytes b2 = g.pow(b1, Bigint::random_below(rng, g.order()));
  check_pow2(g, b1, b2, rng);
}

TEST(GtGroupTest, BatchFormsMatchSingleCalls) {
  // contains_many and pow2_many decide a whole batch in one lockstep pass;
  // each entry must equal the single call, including encodings that do
  // not decode (wrong length, a coordinate >= p) and elements outside GT.
  SecureRandom rng(24);
  const GtGroup g(params());
  const Bigint& p = params().p;
  const Bytes gen = g.pair(params().g, params().g);
  const Fp2 x{Bigint::random_below(rng, p), Bigint::random_below(rng, p)};
  const Fp2 unit_norm = fp2_mul(fp2_conj(x, p), fp2_inv(x, p), p);
  Bytes high = g.encode(g.decode(gen));
  const Bytes pb = p.to_bytes_be(high.size() / 2);
  std::copy(pb.begin(), pb.end(), high.begin());  // a = p: non-canonical
  const std::vector<Bytes> elems{
      gen,          g.identity(),   g.pow(gen, Bigint(5)), Bytes(3),
      high,         g.encode(x),    g.encode(unit_norm),
      g.encode(Fp2{Bigint(0), Bigint(0)}),
      g.encode(Fp2{p - Bigint(1), Bigint(0)})};
  std::vector<const Bytes*> ptrs;
  for (const Bytes& e : elems) ptrs.push_back(&e);
  const std::vector<bool> flags = g.contains_many(ptrs);
  ASSERT_EQ(flags.size(), elems.size());
  for (std::size_t i = 0; i < elems.size(); ++i) {
    EXPECT_EQ(flags[i], g.contains(elems[i])) << "element " << i;
  }
  EXPECT_EQ(flags, (std::vector<bool>{true, true, true, false, false, false,
                                      false, false, false}));
  EXPECT_TRUE(g.contains_many({}).empty());

  std::vector<Group::Pow2Job> jobs;
  for (int i = 0; i < 5; ++i) {
    jobs.push_back({&elems[i % 3], Bigint::random_below(rng, g.order()),
                    &elems[(i + 1) % 3], Bigint(i) - Bigint(2)});
  }
  const std::vector<Bytes> got = g.pow2_many(jobs);
  ASSERT_EQ(got.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(got[i], g.op(g.pow(*jobs[i].base1, jobs[i].e1),
                           g.pow(*jobs[i].base2, jobs[i].e2)))
        << "job " << i;
  }
}

TEST(GroupDescribeTest, DistinctGroupsDistinctDescriptions) {
  const EcGroup ec(params());
  const GtGroup gt(params());
  EXPECT_NE(zn().describe(), ec.describe());
  EXPECT_NE(ec.describe(), gt.describe());
}

}  // namespace
}  // namespace ppms
