// The batched final exponentiation (lockstep Lucas ladders, one shared
// inversion) against the textbook oracles, at a 2-limb and an 8-limb
// field. Every pair_products output must equal tate_pairing_affine, and
// every final_exp output must equal fp2_pow(conj(f)·fp2_inv(f), h) on the
// same input — for output counts on both sides of the SIMD kMinBatch
// threshold (K = 4 puts exactly 2K = 8 jobs in each ladder step's batch;
// K = 1 stays below it) and with the lane kernels forced off.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bigint/simd.h"
#include "pairing/fp2.h"
#include "pairing/pipeline.h"
#include "pairing/tate.h"

namespace ppms {
namespace {

struct Field {
  TypeAParams params;
  std::vector<EcPoint> pts;  // small pool of subgroup points
};

Field make_field(std::uint64_t seed, std::size_t rbits, std::size_t pbits) {
  SecureRandom rng(seed);
  Field fd{typea_generate(rng, rbits, pbits), {}};
  for (int i = 0; i < 8; ++i) {
    fd.pts.push_back(typea_random_subgroup_point(fd.params, rng));
  }
  return fd;
}

const Field& field(std::size_t pbits) {
  static const Field f128 = make_field(7300, 48, 128);
  static const Field f512 = make_field(7301, 57, 512);
  return pbits == 128 ? f128 : f512;
}

// (conj(f)·f⁻¹)^h, all in plain Bigint F_p² arithmetic.
Fp2 oracle_final_exp(const TypeAParams& prm, const Fp2& f) {
  const Bigint& p = prm.p;
  return fp2_pow(fp2_mul(fp2_conj(f, p), fp2_inv(f, p), p), prm.h, p);
}

// Runs f() with the lane kernels forced off, then at the level in force;
// the two must agree.
template <class F>
auto across_levels(F&& f) {
  const simd::Level saved = simd::level();
  simd::set_level(simd::Level::kScalar);
  const auto scalar = f();
  simd::set_level(saved);
  const auto lanes = f();
  EXPECT_EQ(scalar, lanes);
  return lanes;
}

class FinalExpTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FinalExpTest, PairProductsMatchOraclesForEveryBatchSize) {
  const Field& fd = field(GetParam());
  const TypeAParams& prm = fd.params;
  const Bigint& p = prm.p;
  const PairingEngine engine(prm);
  const PairingPrecomp pre = engine.precompute(fd.pts[0]);

  // Oracle pairings, memoised: the products below reuse point pairs.
  std::map<std::pair<std::size_t, std::size_t>, Fp2> memo;
  const auto tate = [&](std::size_t i, std::size_t j) {
    auto it = memo.find({i, j});
    if (it == memo.end()) {
      it = memo.emplace(std::make_pair(i, j),
                        tate_pairing_affine(prm, fd.pts[i], fd.pts[j]))
               .first;
    }
    return it->second;
  };

  for (const std::size_t K : {1, 2, 3, 4, 5, 23, 64}) {
    std::vector<std::vector<PairingTerm>> products(K);
    std::vector<Fp2> expect(K);
    for (std::size_t k = 0; k < K; ++k) {
      const std::size_t i = k % 8;
      const std::size_t j = (k / 8 + 3 * k) % 8;
      switch (k % 3) {
        case 0:  // one live pairing
          products[k] = {PairingTerm{.P = fd.pts[i], .Q = fd.pts[j]}};
          expect[k] = tate(i, j);
          break;
        case 1:  // one table replay
          products[k] = {PairingTerm{.pre = &pre, .Q = fd.pts[j]}};
          expect[k] = tate(0, j);
          break;
        default:  // ê(P_i,Q_j)^e · ê(P_j,Q_i)^{-1}
          const Bigint e(static_cast<std::uint64_t>(k + 2));
          products[k] = {
              PairingTerm{.P = fd.pts[i], .Q = fd.pts[j], .exp = e},
              PairingTerm{.P = fd.pts[j], .Q = fd.pts[i], .invert = true}};
          expect[k] = fp2_mul(fp2_pow(tate(i, j), e, p),
                              fp2_inv(tate(j, i), p), p);
      }
    }
    const std::vector<Fp2> got =
        across_levels([&] { return engine.pair_products(products); });
    ASSERT_EQ(got.size(), K);
    const std::vector<Fp2> raw = engine.miller_values(products);
    ASSERT_EQ(raw.size(), K);
    const std::vector<Fp2> fe = engine.final_exp(raw);
    for (std::size_t k = 0; k < K; ++k) {
      EXPECT_EQ(got[k], expect[k]) << "K=" << K << " k=" << k;
      EXPECT_EQ(fe[k], got[k]) << "K=" << K << " k=" << k;
      EXPECT_EQ(oracle_final_exp(prm, raw[k]), got[k])
          << "K=" << K << " k=" << k;
    }
    // One output alone is the same value as inside the batch.
    EXPECT_EQ(engine.pair_product(products[K - 1]), got[K - 1]);
  }
}

TEST_P(FinalExpTest, ArbitraryElementsMatchPowOracle) {
  // Not only pairing outputs: any non-zero F_p² element, including the
  // z = ±1 shortcuts (f ∈ F_p gives 1, f ∈ i·F_p gives (-1)^h).
  const TypeAParams& prm = field(GetParam()).params;
  const Bigint& p = prm.p;
  const PairingEngine engine(prm);
  SecureRandom rng(7302);
  std::vector<Fp2> f;
  for (int i = 0; i < 9; ++i) {
    f.push_back(Fp2{Bigint::random_below(rng, p), Bigint::random_below(rng, p)});
  }
  f.push_back(Fp2{Bigint(5), Bigint(0)});
  f.push_back(Fp2{Bigint(0), Bigint(7)});
  f.push_back(Fp2{p - Bigint(1), Bigint(0)});
  f.push_back(Fp2{Bigint(0), p - Bigint(1)});
  f.push_back(Fp2{Bigint(1), Bigint(1)});
  const std::vector<Fp2> got = across_levels([&] { return engine.final_exp(f); });
  ASSERT_EQ(got.size(), f.size());
  for (std::size_t k = 0; k < f.size(); ++k) {
    EXPECT_EQ(got[k], oracle_final_exp(prm, f[k])) << "k=" << k;
  }
  EXPECT_TRUE(fp2_is_one(got[9]));   // f ∈ F_p
  EXPECT_EQ(got[10], got[12]);       // both in i·F_p: (-1)^h
  EXPECT_TRUE(fp2_is_one(got[10]));  // 4 | h for Type A

  // Only the z = ±1 shortcuts: no ladder, no inversion.
  const std::uint64_t before = fp_inv_calls();
  const std::vector<Fp2> flat = engine.final_exp({f[9], f[10], f[11]});
  EXPECT_EQ(fp_inv_calls(), before);
  for (const Fp2& v : flat) EXPECT_TRUE(fp2_is_one(v));
}

TEST_P(FinalExpTest, ZeroElementThrows) {
  const TypeAParams& prm = field(GetParam()).params;
  const PairingEngine engine(prm);
  const Fp2 zero{Bigint(0), Bigint(0)};
  EXPECT_THROW(engine.final_exp({zero}), std::domain_error);
  EXPECT_THROW(engine.final_exp({Fp2{Bigint(3), Bigint(4)}, zero}),
               std::domain_error);
  EXPECT_TRUE(engine.final_exp({}).empty());
}

TEST_P(FinalExpTest, EmptyAndTrivialProducts) {
  const Field& fd = field(GetParam());
  const PairingEngine engine(fd.params);
  EXPECT_TRUE(engine.pair_products({}).empty());
  // An empty product, a product of trivial factors and a real one side by
  // side: the first two are exactly 1 and take no final exponentiation.
  const std::vector<std::vector<PairingTerm>> products{
      {},
      {PairingTerm{.P = fd.pts[1], .Q = EcPoint::at_infinity()},
       PairingTerm{.P = fd.pts[1], .Q = fd.pts[2], .exp = fd.params.r}},
      {PairingTerm{.P = fd.pts[1], .Q = fd.pts[2]}},
  };
  const std::vector<Fp2> got = engine.pair_products(products);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_TRUE(fp2_is_one(got[0]));
  EXPECT_TRUE(fp2_is_one(got[1]));
  EXPECT_EQ(got[2], tate_pairing_affine(fd.params, fd.pts[1], fd.pts[2]));
  const std::vector<Fp2> raw = engine.miller_values(products);
  EXPECT_TRUE(fp2_is_one(raw[0]));
  EXPECT_TRUE(fp2_is_one(raw[1]));
}

INSTANTIATE_TEST_SUITE_P(Widths, FinalExpTest, ::testing::Values(128, 512),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace ppms
