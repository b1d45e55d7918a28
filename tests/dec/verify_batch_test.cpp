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
#include "dec/session.h"
#include "dec/spend.h"
#include "dec_fixture.h"
#include "obs/metrics.h"
#include "pairing/fp2.h"
#include "support/small_order.h"

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

constexpr Kind kCycle[] = {Kind::kValid,         Kind::kHiding,
                           Kind::kFlippedProof,   Kind::kForgedCert,
                           Kind::kValid,         Kind::kUnitV,
                           Kind::kHidingFlipped, Kind::kHidingForged};

// n members of a fixed cycle of kinds starting at kCycle[first], spread
// over two wallets; hiding and regular members interleave.
std::vector<DepositSpend> build(DecBank& bank, std::size_t n,
                                std::uint64_t seed, std::size_t first = 0) {
  const DecWallet w1 = make_funded_wallet(bank, seed);
  const DecWallet w2 = make_funded_wallet(bank, seed + 1);
  SecureRandom rng(seed + 2);
  const Bigint& p = bank.params().pairing.p;
  const ClPublicKey& pk = bank.public_key();
  std::vector<DepositSpend> m;
  for (std::size_t i = 0; i < n; ++i) {
    const DecWallet& w = i % 2 == 0 ? w1 : w2;
    const NodeIndex node{3, i % 8};
    const Kind kind = kCycle[(first + i) % std::size(kCycle)];
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
  // A batch of one takes δ = 1, so a lone member of every kind — a forged
  // certificate included — must still be decided exactly.
  for (std::size_t first = 0; first < std::size(kCycle); ++first) {
    const std::vector<DepositSpend> m = build(bank, 1, 7390 + first, first);
    expect_matches_single(bank, m, bank.verify_batch(members_of(m)),
                          "n=1 kind " + std::to_string(first));
  }
  for (const std::size_t n : {2, 23}) {
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
  // A certificate point off the curve gets no precomputed statement and is
  // decided false on its own; the batched product covers the rest.
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

TEST_P(VerifyBatchEquivalence, WireInfinityMemberKeepsTheBatchProduct) {
  // ec_deserialize accepts the canonical point at infinity, so a client
  // can deposit a spend whose certificate has a = O. That member is false,
  // and the rest still share one randomized product: the engine call costs
  // 2 final exponentiations per well-formed member (V and W) plus 1 for
  // the product, with no per-certificate fallback.
  DecBank bank = make_bank(7440);
  const DecParams& params = bank.params();
  std::vector<DepositSpend> m = build(bank, 3, 7441);  // valid, hiding, flipped
  {
    std::vector<DepositSpend> more = build(bank, 2, 7445);  // valid, hiding
    for (DepositSpend& d : more) m.push_back(std::move(d));
  }
  SpendBundle bad = std::get<SpendBundle>(build(bank, 1, 7447)[0]);
  bad.cert.a = EcPoint::at_infinity();
  m.insert(m.begin() + 2,
           SpendBundle::deserialize(params, bad.serialize(params)));
  ASSERT_TRUE(std::get<SpendBundle>(m[2]).cert.a.infinity);

  obs::set_metrics_enabled(true);
  obs::Counter& finalexp = obs::counter("crypto.pairing.finalexp");
  const std::uint64_t before = finalexp.value();
  const std::vector<bool> flags = bank.verify_batch(members_of(m));
  const std::size_t well_formed = m.size() - 1;
  EXPECT_EQ(finalexp.value() - before, 2 * well_formed + 1);
  expect_matches_single(bank, m, flags, "wire infinity");
  EXPECT_FALSE(flags[2]);
  EXPECT_TRUE(flags[0]);
  EXPECT_TRUE(flags[1]);
}

TEST_P(VerifyBatchEquivalence, AdversarialProofCommitmentsMatchSingleVerifier) {
  // Every member's A1 membership and proof equation are decided in one
  // lockstep pass. Members whose A1 is not in GT (a norm-1 element of the
  // wrong order, a non-unitary element), whose A1 is another member's, or
  // whose response is out of range must each get verify_spend's verdict,
  // with their honest neighbours unaffected.
  DecBank bank = make_bank(7450);
  const DecParams& params = bank.params();
  const GtGroup& gt = params.session().gt();
  const Bigint& p = params.pairing.p;
  const DecWallet w = make_funded_wallet(bank, 7451);
  SecureRandom rng(7452);
  std::vector<SpendBundle> s;
  for (std::uint64_t i = 0; i < 8; ++i) {
    s.push_back(w.spend(NodeIndex{3, i}, bank.public_key(), rng, {}));
  }
  const Fp2 f{Bigint::random_below(rng, p), Bigint::random_below(rng, p)};
  const Fp2 unit_norm = fp2_mul(fp2_conj(f, p), fp2_inv(f, p), p);
  ASSERT_FALSE(gt.contains(gt.encode(unit_norm)));
  s[1].proof.commitment1 = gt.encode(unit_norm);
  s[3].proof.commitment1 = gt.encode(f);
  s[4].proof.commitment1 = s[5].proof.commitment1;
  s[6].proof.response = s[6].proof.response + params.pairing.r;
  s[7].proof.commitment1 =
      gt.encode(fp2_pow(unit_norm, params.pairing.r, p));  // order | h
  const std::vector<DepositSpend> m(s.begin(), s.end());
  const std::vector<bool> flags = bank.verify_batch(members_of(m));
  expect_matches_single(bank, m, flags, "adversarial A1");
  const std::vector<bool> want{true, false, true, false,
                               false, true, false, false};
  EXPECT_EQ(flags, want);
}

// Certificates carrying a small-order component (the deposit path does
// not yet check certificate points for membership in G). Whatever
// verify_spend decides for such a spend, verify_batch must decide the
// same, both for a third party's malleation of a valid spend and for a
// spender who re-randomized a certificate that carries the component.
TEST_P(VerifyBatchEquivalence, CofactorComponentCertsMatchSingleVerifier) {
  DecBank bank = make_bank(7420);
  const DecParams& params = bank.params();
  const Bigint& p = params.pairing.p;
  const ClPublicKey& pk = bank.public_key();
  SecureRandom rng(7421);
  DecWallet w(params, rng);
  const Bytes ctx = bytes_of("withdraw");
  const auto issued = bank.withdraw(
      w.commitment(), w.prove_commitment(rng, ctx), ctx, rng);
  ASSERT_TRUE(issued.has_value());
  w.set_certificate(pk, *issued);
  std::vector<DepositSpend> m;
  for (const EcPoint& t : testing::small_order_points(p)) {
    for (int slot = 0; slot < 3; ++slot) {
      const auto point = [slot](ClSignature& sig) -> EcPoint& {
        return slot == 0 ? sig.a : slot == 1 ? sig.b : sig.c;
      };
      // Malleated in transit: the component is added after the proof.
      SpendBundle mal = w.spend(NodeIndex{3, 0}, pk, rng, {});
      point(mal.cert) = ec_add(point(mal.cert), t, p);
      m.emplace_back(std::move(mal));
      // Built by the spender from a certificate with the component, until
      // the re-randomizing ρ keeps it.
      ClSignature cert = *issued;
      point(cert) = ec_add(point(cert), t, p);
      for (;;) {
        SpendBundle own = make_spend(params, pk, w.secret_for_testing(), cert,
                                     NodeIndex{3, 1}, rng, {});
        if (typea_in_subgroup(params.pairing, {point(own.cert)})) continue;
        m.emplace_back(std::move(own));
        break;
      }
    }
  }
  m.emplace_back(w.spend(NodeIndex{3, 2}, pk, rng, {}));
  const std::vector<bool> flags = bank.verify_batch(members_of(m));
  expect_matches_single(bank, m, flags, "cofactor components");
  // Today's verdicts, until the deposit path checks certificate points
  // for membership in G: the proof binds the certificate bytes, so a
  // malleated spend fails; a component of order prime to r drops out of
  // every second-slot pairing, so the spender's own certificate passes.
  for (std::size_t i = 0; i + 1 < m.size(); ++i) {
    EXPECT_EQ(flags[i], i % 2 == 1) << "member " << i;
  }
  EXPECT_TRUE(flags.back());
}

TEST(DecSessionSubgroup, KeyOutsideGHasNoTables) {
  const DecBank bank = make_bank(7430);
  const DecParams& params = bank.params();
  EXPECT_NE(params.session().pk_tables(bank.public_key()), nullptr);
  for (const EcPoint& t : testing::small_order_points(params.pairing.p)) {
    ClPublicKey pk = bank.public_key();
    pk.Y = ec_add(pk.Y, t, params.pairing.p);
    EXPECT_EQ(params.session().pk_tables(pk), nullptr);
    pk = bank.public_key();
    pk.X = ec_add(pk.X, t, params.pairing.p);
    EXPECT_EQ(params.session().pk_tables(pk), nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(Simd, VerifyBatchEquivalence,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "ScalarOnly" : "DefaultLevel";
                         });

}  // namespace
}  // namespace ppms
