#include "zkp/equality.h"

#include <gtest/gtest.h>

#include "bigint/cunningham.h"
#include "bigint/prime.h"
#include "util/counters.h"

namespace ppms {
namespace {

// The DEC-shaped setting: a curve group and a Z*_p tower group that share
// one prime order r (r, 2r+1 is a Cunningham pair).
struct Fixture {
  TypeAParams params;
  std::unique_ptr<EcGroup> ec;
  std::unique_ptr<ZnGroup> zn;
};

const Fixture& fx() {
  static const Fixture f = [] {
    SecureRandom rng(41);
    const auto chain = search_chain_random(rng, 40, 2, 2000000);
    if (!chain) throw std::runtime_error("no chain found");
    const Bigint r = chain->primes[0];
    const Bigint p2 = chain->primes[1];  // 2r + 1
    Fixture out;
    out.params = typea_generate_for_order(rng, r, 96);
    out.ec = std::make_unique<EcGroup>(out.params);
    out.zn = std::make_unique<ZnGroup>(
        ZnGroup::quadratic_residues(p2, rng));
    return out;
  }();
  return f;
}

TEST(EqualityTest, CrossGroupProofVerifies) {
  SecureRandom rng(1);
  const Bigint x = Bigint::random_below(rng, fx().ec->order());
  const Bytes g1 = fx().ec->generator();
  const Bytes g2 = fx().zn->generator();
  const Bytes y1 = fx().ec->pow(g1, x);
  const Bytes y2 = fx().zn->pow(g2, x);
  const EqualityProof proof =
      equality_prove(*fx().ec, g1, y1, *fx().zn, g2, y2, x, rng);
  EXPECT_TRUE(equality_verify(*fx().ec, g1, y1, *fx().zn, g2, y2, proof));
}

TEST(EqualityTest, SameGroupTwoBases) {
  SecureRandom rng(2);
  const Bytes g = fx().zn->generator();
  const Bytes h = fx().zn->pow(g, Bigint(101));
  const Bigint x(555);
  const Bytes y1 = fx().zn->pow(g, x);
  const Bytes y2 = fx().zn->pow(h, x);
  const EqualityProof proof =
      equality_prove(*fx().zn, g, y1, *fx().zn, h, y2, x, rng);
  EXPECT_TRUE(equality_verify(*fx().zn, g, y1, *fx().zn, h, y2, proof));
}

TEST(EqualityTest, UnequalWitnessesRejected) {
  // y2 uses a different exponent: an honest prover cannot exist, and a
  // proof made for x must fail against the mismatched pair.
  SecureRandom rng(3);
  const Bigint x(11);
  const Bytes g1 = fx().ec->generator();
  const Bytes g2 = fx().zn->generator();
  const Bytes y1 = fx().ec->pow(g1, x);
  const Bytes y2_wrong = fx().zn->pow(g2, Bigint(12));
  const EqualityProof proof = equality_prove(
      *fx().ec, g1, y1, *fx().zn, g2, fx().zn->pow(g2, x), x, rng);
  EXPECT_FALSE(
      equality_verify(*fx().ec, g1, y1, *fx().zn, g2, y2_wrong, proof));
}

TEST(EqualityTest, OrderMismatchThrowsOnProveFailsOnVerify) {
  SecureRandom rng(4);
  const ZnGroup other =
      ZnGroup::quadratic_residues(random_safe_prime(rng, 64), rng);
  const Bigint x(3);
  const Bytes g1 = fx().ec->generator();
  const Bytes y1 = fx().ec->pow(g1, x);
  const Bytes g2 = other.generator();
  const Bytes y2 = other.pow(g2, x);
  EXPECT_THROW(equality_prove(*fx().ec, g1, y1, other, g2, y2, x, rng),
               std::invalid_argument);
  const EqualityProof junk{y1, y2, Bigint(1)};
  EXPECT_FALSE(equality_verify(*fx().ec, g1, y1, other, g2, y2, junk));
}

TEST(EqualityTest, ContextBinds) {
  SecureRandom rng(5);
  const Bigint x(7);
  const Bytes g1 = fx().ec->generator();
  const Bytes g2 = fx().zn->generator();
  const Bytes y1 = fx().ec->pow(g1, x);
  const Bytes y2 = fx().zn->pow(g2, x);
  const EqualityProof proof = equality_prove(*fx().ec, g1, y1, *fx().zn, g2,
                                             y2, x, rng, bytes_of("ctx-a"));
  EXPECT_TRUE(equality_verify(*fx().ec, g1, y1, *fx().zn, g2, y2, proof,
                              bytes_of("ctx-a")));
  EXPECT_FALSE(equality_verify(*fx().ec, g1, y1, *fx().zn, g2, y2, proof,
                               bytes_of("ctx-b")));
}

TEST(EqualityTest, TamperedResponseRejected) {
  SecureRandom rng(6);
  const Bigint x(7);
  const Bytes g1 = fx().ec->generator();
  const Bytes g2 = fx().zn->generator();
  const Bytes y1 = fx().ec->pow(g1, x);
  const Bytes y2 = fx().zn->pow(g2, x);
  EqualityProof proof =
      equality_prove(*fx().ec, g1, y1, *fx().zn, g2, y2, x, rng);
  proof.response = (proof.response + Bigint(1)).mod(fx().ec->order());
  EXPECT_FALSE(equality_verify(*fx().ec, g1, y1, *fx().zn, g2, y2, proof));
}

TEST(EqualityTest, SerializationRoundTrip) {
  SecureRandom rng(7);
  const Bigint x(9);
  const Bytes g1 = fx().ec->generator();
  const Bytes g2 = fx().zn->generator();
  const Bytes y1 = fx().ec->pow(g1, x);
  const Bytes y2 = fx().zn->pow(g2, x);
  const EqualityProof proof =
      equality_prove(*fx().ec, g1, y1, *fx().zn, g2, y2, x, rng);
  const EqualityProof copy = EqualityProof::deserialize(proof.serialize());
  EXPECT_TRUE(equality_verify(*fx().ec, g1, y1, *fx().zn, g2, y2, copy));
}

TEST(EqualityTest, ManyMatchesSingleVerifierAndCountsEach) {
  // equality_verify_many over GT (membership and proof equations in
  // lockstep) and the tower group: each flag equals the single verifier's,
  // and each instance counts as one ZKP verify.
  SecureRandom rng(8);
  const GtGroup gt(fx().params);
  const ZnGroup& zn = *fx().zn;
  const Bigint& r = gt.order();
  const Bytes g1 = gt.pair(fx().params.g, fx().params.g);
  const Bytes g2 = zn.generator();
  const std::size_t n = 7;
  std::vector<Bytes> y1(n), y2(n), ctx(n);
  std::vector<EqualityProof> proofs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Bigint x = Bigint::random_below(rng, r);
    y1[i] = gt.pow(g1, x);
    y2[i] = zn.pow(g2, i == 1 ? x + Bigint(1) : x);  // 1: unequal witnesses
    ctx[i] = bytes_of("ctx-" + std::to_string(i));
    proofs[i] = equality_prove(gt, g1, y1[i], zn, g2, y2[i], x, rng, ctx[i]);
  }
  proofs[2].response = proofs[2].response + r;      // out of range
  proofs[3].commitment1 = proofs[4].commitment1;    // another member's A1
  const Fp2 f{Bigint(3), Bigint(5)};
  proofs[5].commitment1 = gt.encode(f);             // not unitary
  std::vector<EqualityInstance> instances;
  for (std::size_t i = 0; i < n; ++i) {
    instances.push_back({&g1, &y1[i], &g2, &y2[i], &proofs[i], &ctx[i]});
  }
  reset_op_counters();
  set_op_counting(true);
  const std::vector<bool> flags =
      equality_verify_many(gt, zn, instances, /*trusted_statement=*/false);
  const std::uint64_t counted =
      op_counters().get(Role::None, OpKind::Zkp);
  set_op_counting(false);
  reset_op_counters();
  EXPECT_EQ(counted, n);
  EXPECT_EQ(flags, (std::vector<bool>{true, false, false, false, true, false,
                                      true}));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(flags[i], equality_verify(gt, g1, y1[i], zn, g2, y2[i],
                                        proofs[i], ctx[i]))
        << "instance " << i;
  }
  EXPECT_TRUE(equality_verify_many(gt, zn, {}, false).empty());
}

}  // namespace
}  // namespace ppms
