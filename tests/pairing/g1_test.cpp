// The flat G1 ladder (ec_mul, ec_mul_many) against the textbook affine
// double-and-add oracle ec_mul_affine, on 2-, 3- and 8-limb fields, over
// the scalars and bases where a Jacobian NAF ladder can go wrong: zero and
// unit scalars, scalars at and next to the group order, the cofactor,
// infinity, the order-2 point, an order-4 point and subgroup points
// carrying a small-order component. The lockstep form must equal one call
// per point whatever the neighbouring lanes hold.
#include "pairing/curve.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "pairing/fp.h"
#include "pairing/typea.h"
#include "support/small_order.h"

namespace ppms {
namespace {

using testing::order2_point;
using testing::order4_point;

const TypeAParams& params(std::size_t pbits) {
  static std::map<std::size_t, TypeAParams> cache;
  auto it = cache.find(pbits);
  if (it == cache.end()) {
    SecureRandom rng(1600 + pbits);
    it = cache.emplace(pbits, typea_generate(rng, 57, pbits)).first;
  }
  return it->second;
}

std::vector<EcPoint> bases(const TypeAParams& prm, SecureRandom& rng) {
  const Bigint& p = prm.p;
  const EcPoint two = order2_point();
  const EcPoint four = order4_point(p);
  const EcPoint gp = typea_random_subgroup_point(prm, rng);
  return {
      EcPoint::at_infinity(),
      prm.g,
      gp,
      typea_random_subgroup_point(prm, rng),
      two,
      four,
      ec_neg(four, p),
      ec_add(gp, two, p),
      ec_add(gp, four, p),
      ec_random_point(rng, p),  // outside G with overwhelming probability
  };
}

std::vector<Bigint> scalars(const TypeAParams& prm, SecureRandom& rng) {
  const Bigint& r = prm.r;
  // r ∓ 2 (whichever has NAF digit -1 / +1 last) makes the ladder reach
  // R = ±P inside a mixed addition on points of G: the doubling case.
  // r itself reaches R = -(±P), the infinity case.
  std::vector<Bigint> out = {Bigint(0),     Bigint(1),     Bigint(2),
                             Bigint(3),     r - Bigint(2), r - Bigint(1),
                             r,             r + Bigint(1), r + Bigint(2),
                             prm.h,         prm.h * r};
  for (int i = 0; i < 3; ++i) out.push_back(Bigint::random_below(rng, r));
  for (int i = 0; i < 2; ++i) {
    out.push_back(Bigint::random_bits(rng, 2 * r.bit_length()));
  }
  return out;
}

class G1Diff : public ::testing::TestWithParam<std::size_t> {};

TEST_P(G1Diff, EcMulMatchesAffineOracle) {
  const TypeAParams& prm = params(GetParam());
  SecureRandom rng(1610 + GetParam());
  const std::vector<EcPoint> pts = bases(prm, rng);
  for (const Bigint& k : scalars(prm, rng)) {
    for (std::size_t i = 0; i < pts.size(); ++i) {
      EXPECT_EQ(ec_mul(pts[i], k, prm.p), ec_mul_affine(pts[i], k, prm.p))
          << "base " << i << " k " << k.to_decimal();
    }
  }
}

TEST_P(G1Diff, SmallOrderPointsBehave) {
  const TypeAParams& prm = params(GetParam());
  const EcPoint two = order2_point();
  const EcPoint four = order4_point(prm.p);
  EXPECT_TRUE(ec_mul(two, Bigint(2), prm.p).infinity);
  EXPECT_EQ(ec_mul(four, Bigint(2), prm.p), two);
  EXPECT_EQ(ec_mul(four, Bigint(3), prm.p), ec_neg(four, prm.p));
  EXPECT_TRUE(ec_mul(four, Bigint(4), prm.p).infinity);
  EXPECT_TRUE(ec_mul(prm.g, prm.r, prm.p).infinity);
  EXPECT_FALSE(ec_mul(ec_add(prm.g, two, prm.p), prm.r, prm.p).infinity);
}

TEST_P(G1Diff, LockstepEqualsSingleCalls) {
  const TypeAParams& prm = params(GetParam());
  SecureRandom rng(1620 + GetParam());
  const std::vector<EcPoint> pool = bases(prm, rng);
  const std::vector<Bigint> ks = scalars(prm, rng);
  for (const std::size_t K : {1u, 2u, 3u, 5u, 9u}) {
    for (const Bigint& k : ks) {
      std::vector<EcPoint> lanes;
      for (std::size_t i = 0; i < K; ++i) {
        lanes.push_back(pool[rng.uniform(pool.size())]);
      }
      const std::vector<EcPoint> got = ec_mul_many(lanes, k, prm.p);
      ASSERT_EQ(got.size(), K);
      for (std::size_t i = 0; i < K; ++i) {
        EXPECT_EQ(got[i], ec_mul(lanes[i], k, prm.p))
            << "K " << K << " lane " << i << " k " << k.to_decimal();
      }
    }
  }
  EXPECT_TRUE(ec_mul_many({}, Bigint(5), prm.p).empty());
}

TEST_P(G1Diff, NegativeScalarThrows) {
  const TypeAParams& prm = params(GetParam());
  EXPECT_THROW(ec_mul(prm.g, Bigint(-1), prm.p), std::invalid_argument);
  EXPECT_THROW(ec_mul_many({prm.g, prm.g}, Bigint(-3), prm.p),
               std::invalid_argument);
}

TEST_P(G1Diff, OneInversionPerCall) {
  const TypeAParams& prm = params(GetParam());
  SecureRandom rng(1630 + GetParam());
  std::vector<EcPoint> pts;
  for (int i = 0; i < 5; ++i) {
    pts.push_back(typea_random_subgroup_point(prm, rng));
  }
  const Bigint k = Bigint::random_below(rng, prm.r) + Bigint(1);
  std::uint64_t before = fp_inv_calls();
  ec_mul_many(pts, k, prm.p);
  EXPECT_EQ(fp_inv_calls() - before, 1u);
  // A subgroup check on members of G ends at infinity everywhere.
  before = fp_inv_calls();
  for (const EcPoint& q : ec_mul_many(pts, prm.r, prm.p)) {
    EXPECT_TRUE(q.infinity);
  }
  EXPECT_EQ(fp_inv_calls() - before, 0u);
}

INSTANTIATE_TEST_SUITE_P(Widths, G1Diff, ::testing::Values(128, 192, 512),
                         [](const auto& info) {
                           return std::to_string(info.param) + "bit";
                         });

}  // namespace
}  // namespace ppms
