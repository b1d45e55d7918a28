// DecBank::verify_batch decides a whole tick with one pairing-engine call
// (the randomized certificate product plus every member's GT statement)
// and then checks each member's proof against its precomputed statement.
// Member by member it must return exactly what the single verifiers
// return, on mixed batches of valid and broken regular and root-hiding
// spends interleaved in input order — with the lane kernels on and forced
// off.
#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "bigint/simd.h"
#include "dec/bank.h"
#include "dec_fixture.h"

namespace ppms {
namespace {

using testing::make_bank;
using testing::make_funded_wallet;
using testing::members_of;

enum class Kind {
  kValid,
  kHiding,
  kFlippedProof,
  kForgedCert,
  kUnitV,
  kHidingFlipped,
  kHidingForged,
};

// The first n members of a fixed cycle of kinds, spread over two wallets;
// hiding and regular members interleave.
std::vector<DepositSpend> build(DecBank& bank, std::size_t n,
                                std::uint64_t seed) {
  static const Kind kCycle[] = {Kind::kValid,       Kind::kHiding,
                                Kind::kFlippedProof, Kind::kForgedCert,
                                Kind::kValid,       Kind::kUnitV,
                                Kind::kHidingFlipped, Kind::kHidingForged};
  const DecWallet w1 = make_funded_wallet(bank, seed);
  const DecWallet w2 = make_funded_wallet(bank, seed + 1);
  SecureRandom rng(seed + 2);
  const Bigint& p = bank.params().pairing.p;
  const ClPublicKey& pk = bank.public_key();
  std::vector<DepositSpend> m;
  for (std::size_t i = 0; i < n; ++i) {
    const DecWallet& w = i % 2 == 0 ? w1 : w2;
    const NodeIndex node{3, i % 8};
    const Kind kind = kCycle[i % std::size(kCycle)];
    switch (kind) {
      case Kind::kHiding:
      case Kind::kHidingFlipped:
      case Kind::kHidingForged: {
        RootHidingSpend s = w.spend_hiding(node, pk, rng, {});
        if (kind == Kind::kHidingFlipped) s.gt_commitments[0].back() ^= 1;
        if (kind == Kind::kHidingForged) s.cert.c = ec_mul(s.cert.c, Bigint(3), p);
        m.emplace_back(std::move(s));
        break;
      }
      default: {
        SpendBundle s = w.spend(node, pk, rng, {});
        if (kind == Kind::kFlippedProof) s.proof.commitment2.back() ^= 1;
        if (kind == Kind::kForgedCert) s.cert.b = ec_mul(s.cert.b, Bigint(2), p);
        if (kind == Kind::kUnitV) s.cert.b = EcPoint::at_infinity();  // V = 1
        m.emplace_back(std::move(s));
      }
    }
  }
  return m;
}

bool verify_single(const DecBank& bank, const DepositSpend& spend) {
  if (const auto* hiding = std::get_if<RootHidingSpend>(&spend)) {
    return verify_root_hiding_spend(bank.params(), bank.public_key(),
                                    *hiding);
  }
  return verify_spend(bank.params(), bank.public_key(),
                      std::get<SpendBundle>(spend));
}

void expect_matches_single(const DecBank& bank,
                           const std::vector<DepositSpend>& m,
                           const std::vector<bool>& got,
                           const std::string& label) {
  ASSERT_EQ(got.size(), m.size()) << label;
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(got[i], verify_single(bank, m[i])) << label << " member " << i;
  }
}

class VerifyBatchEquivalence : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    saved_ = simd::level();
    if (GetParam()) simd::set_level(simd::Level::kScalar);
  }
  void TearDown() override { simd::set_level(saved_); }

 private:
  simd::Level saved_ = simd::Level::kScalar;
};

TEST_P(VerifyBatchEquivalence, MixedBatchesMatchSingleVerifiers) {
  DecBank bank = make_bank(7400);
  for (const std::size_t n : {1, 2, 23}) {
    const std::vector<DepositSpend> m = build(bank, n, 7401 + 10 * n);
    const std::vector<bool> got = bank.verify_batch(members_of(m));
    expect_matches_single(bank, m, got, "n=" + std::to_string(n));
    if (n == 23) {
      std::size_t accepted = 0;
      for (const bool ok : got) accepted += ok ? 1 : 0;
      EXPECT_EQ(accepted, 9u);  // 6 valid regular + 3 valid hiding
    }
  }
}

TEST_P(VerifyBatchEquivalence, MalformedMemberIsDecidedAlone) {
  // A certificate point off the curve skips the batched product (every
  // certificate is then decided alone) and gets no precomputed statement.
  DecBank bank = make_bank(7410);
  std::vector<DepositSpend> m = build(bank, 6, 7411);
  EcPoint& a = std::get<SpendBundle>(m[2]).cert.a;  // a flipped-proof member
  a.x = a.x + Bigint(1);
  const std::vector<bool> flags = bank.verify_batch(members_of(m));
  expect_matches_single(bank, m, flags, "malformed");
  EXPECT_FALSE(flags[2]);
  EXPECT_TRUE(flags[0]);
  EXPECT_TRUE(flags[1]);
}

INSTANTIATE_TEST_SUITE_P(Simd, VerifyBatchEquivalence,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "ScalarOnly" : "DefaultLevel";
                         });

}  // namespace
}  // namespace ppms
