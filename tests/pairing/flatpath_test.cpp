// The pairing engine against the textbook oracles: tate_pairing_affine
// composed with plain F_p² arithmetic. The engine has one field path and
// one Miller loop; its only remaining modes are the SIMD dispatch levels
// of the lane-batched products, so every result is also checked to be
// identical with the lane kernels forced off. A shared engine must stay
// exact under concurrent use (the TSan angle).
#include "pairing/pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "bigint/simd.h"
#include "pairing/fp.h"
#include "pairing/fp2.h"
#include "pairing/tate.h"

namespace ppms {
namespace {

const TypeAParams& params() {
  static const TypeAParams prm = [] {
    SecureRandom rng(9100);
    return typea_generate(rng, 48, 128);
  }();
  return prm;
}

const PairingEngine& engine() {
  static const PairingEngine e(params());
  return e;
}

// f() with the lane kernels forced off, then at the level in force before
// the call; the two must agree. Returns the result.
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

TEST(FlatPairingPath, LivePairBitIdenticalAcrossModesAndOracle) {
  SecureRandom rng(9101);
  for (int i = 0; i < 4; ++i) {
    const EcPoint P = typea_random_subgroup_point(params(), rng);
    const EcPoint Q = typea_random_subgroup_point(params(), rng);
    const Fp2 f = across_levels([&] { return engine().pair(P, Q); });
    EXPECT_EQ(f, tate_pairing_affine(params(), P, Q));
  }
}

TEST(FlatPairingPath, PairProductBitIdenticalAcrossModes) {
  SecureRandom rng(9104);
  const PairingPrecomp pre =
      engine().precompute(typea_random_subgroup_point(params(), rng));
  std::vector<PairingTerm> terms;
  for (int i = 0; i < 3; ++i) {
    PairingTerm t;
    t.P = typea_random_subgroup_point(params(), rng);
    t.Q = typea_random_subgroup_point(params(), rng);
    t.exp = Bigint::random_below(rng, params().r);
    t.invert = i % 2 == 1;
    terms.push_back(t);
  }
  PairingTerm pt;
  pt.pre = &pre;
  pt.Q = typea_random_subgroup_point(params(), rng);
  pt.exp = terms[0].exp;  // shares an accumulator group
  terms.push_back(pt);

  const Fp2 got = across_levels([&] { return engine().pair_product(terms); });

  // Oracle reference: compose affine pairings with plain F_p² arithmetic.
  const Bigint& p = params().p;
  Fp2 expect = fp2_one();
  for (const PairingTerm& t : terms) {
    const EcPoint& P = t.pre != nullptr ? t.pre->point() : t.P;
    Fp2 v = fp2_pow(tate_pairing_affine(params(), P, t.Q),
                    t.exp.mod(params().r), p);
    if (t.invert) v = fp2_inv(v, p);
    expect = fp2_mul(expect, v, p);
  }
  EXPECT_EQ(got, expect);
}

TEST(FlatPairingPath, GtPowsBitIdenticalAcrossModes) {
  SecureRandom rng(9105);
  const Fp2 g = tate_pairing_affine(params(), params().g, params().g);
  const Bigint& p = params().p;
  for (int i = 0; i < 4; ++i) {
    const Bigint e1 = Bigint::random_below(rng, params().r);
    const Bigint e2 = Bigint::random_below(rng, params().r);
    const Fp2 h = fp2_pow(g, Bigint(7), p);
    EXPECT_EQ(across_levels([&] { return engine().gt_pow(g, e1); }),
              fp2_pow(g, e1, p));
    EXPECT_EQ(across_levels([&] {
                return engine().gt_pow2_many({{g, e1, h, e2}})[0];
              }),
              fp2_mul(fp2_pow(g, e1, p), fp2_pow(h, e2, p), p));
    // Membership of a GT element, a non-unitary element and a norm-1
    // element outside GT, decided together.
    const Fp2 f{e1 + Bigint(1), e2};
    const std::vector<Fp2> xs{h, f, fp2_mul(fp2_conj(f, p), fp2_inv(f, p), p)};
    const auto flags =
        across_levels([&] { return engine().gt_contains_many(xs); });
    ASSERT_EQ(flags.size(), 3u);
    for (std::size_t j = 0; j < xs.size(); ++j) {
      EXPECT_EQ(flags[j], fp2_is_one(fp2_pow(xs[j], params().r, p)))
          << "element " << j;
    }
  }
}

TEST(FlatPairingPath, InversionBudgetUnchanged) {
  // The batched final exponentiation shares one fp_inv across every
  // output of an engine call: a single pairing, a product, and batches of
  // K independent products all cost exactly one inversion.
  SecureRandom rng(9106);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  std::uint64_t before = fp_inv_calls();
  (void)engine().pair(P, Q);
  EXPECT_EQ(fp_inv_calls() - before, 1u);
  before = fp_inv_calls();
  (void)engine().pair_product(
      {PairingTerm{nullptr, P, Q, Bigint(1), false},
       PairingTerm{nullptr, Q, P, Bigint(2), true}});
  EXPECT_EQ(fp_inv_calls() - before, 1u);  // one for the whole product
  for (const std::size_t K : {1, 3, 4, 23}) {
    std::vector<std::vector<PairingTerm>> products;
    for (std::size_t k = 0; k < K; ++k) {
      products.push_back({PairingTerm{nullptr, P, Q,
                                      Bigint(static_cast<std::uint64_t>(k + 1)),
                                      k % 2 == 1}});
    }
    before = fp_inv_calls();
    const std::vector<Fp2> out = engine().pair_products(products);
    EXPECT_EQ(fp_inv_calls() - before, 1u) << "K=" << K;
    ASSERT_EQ(out.size(), K);
  }
}

// TSan target: one engine and one shared precomp table driven from many
// threads; every result is checked against a fixed expected value so data
// races surface as wrong answers even without the sanitizer.
TEST(FlatPairingConcurrency, SharedFlatEngineUnderThreads) {
  SecureRandom rng(9107);
  const EcPoint P = typea_random_subgroup_point(params(), rng);
  const EcPoint Q = typea_random_subgroup_point(params(), rng);
  const PairingPrecomp pre = engine().precompute(P);
  const Fp2 expect = tate_pairing_affine(params(), P, Q);
  constexpr int kThreads = 8;
  constexpr int kIters = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        if (engine().pair(pre, Q) != expect) failures.fetch_add(1);
        if (engine().pair(P, Q) != expect) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace ppms
