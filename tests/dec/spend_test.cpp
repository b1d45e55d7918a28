#include "dec/spend.h"

#include <gtest/gtest.h>

#include "dec_fixture.h"

namespace ppms {
namespace {

using testing::dec_params;
using testing::make_bank;
using testing::make_funded_wallet;

struct SpendFixture {
  std::shared_ptr<DecBank> bank_ptr;
  DecWallet wallet;
  SpendBundle bundle;

  const DecBank& bank() const { return *bank_ptr; }
};

SpendFixture make_spend_fixture(std::uint64_t seed) {
  SecureRandom bank_rng(seed);
  auto bank = std::make_shared<DecBank>(dec_params(), bank_rng);
  DecWallet wallet = make_funded_wallet(*bank, seed + 1);
  SecureRandom rng(seed + 2);
  const auto node = wallet.allocate(2);
  SpendBundle bundle =
      wallet.spend(*node, bank->public_key(), rng, bytes_of("payee-77"));
  return {std::move(bank), std::move(wallet), std::move(bundle)};
}

TEST(SpendTest, HonestSpendVerifies) {
  const SpendFixture f = make_spend_fixture(100);
  EXPECT_TRUE(verify_spend(dec_params(), f.bank().public_key(), f.bundle));
}

TEST(SpendTest, LeafAndRootSpendsVerify) {
  DecBank bank = make_bank(110);
  DecWallet w1 = make_funded_wallet(bank, 111);
  DecWallet w2 = make_funded_wallet(bank, 112);
  SecureRandom rng(113);
  const SpendBundle leaf =
      w1.spend(*w1.allocate(1), bank.public_key(), rng, {});
  EXPECT_EQ(leaf.node.depth, dec_params().L);
  EXPECT_TRUE(verify_spend(dec_params(), bank.public_key(), leaf));
  const SpendBundle root =
      w2.spend(*w2.allocate(8), bank.public_key(), rng, {});
  EXPECT_EQ(root.node.depth, 0u);
  EXPECT_EQ(root.path_serials.size(), 1u);
  EXPECT_TRUE(verify_spend(dec_params(), bank.public_key(), root));
}

TEST(SpendTest, TamperedSerialRejected) {
  SpendFixture f = make_spend_fixture(120);
  const ZnGroup& g = dec_params().tower[f.bundle.node.depth];
  f.bundle.path_serials.back() = g.decode(
      g.pow(g.generator(), Bigint(12345)));
  EXPECT_FALSE(verify_spend(dec_params(), f.bank().public_key(), f.bundle));
}

TEST(SpendTest, WrongBranchBitRejected) {
  SpendFixture f = make_spend_fixture(130);
  // Claim the sibling node: serials no longer chain to the stated index.
  f.bundle.node.index ^= 1;
  EXPECT_FALSE(verify_spend(dec_params(), f.bank().public_key(), f.bundle));
}

TEST(SpendTest, TruncatedPathRejected) {
  SpendFixture f = make_spend_fixture(140);
  f.bundle.path_serials.pop_back();
  EXPECT_FALSE(verify_spend(dec_params(), f.bank().public_key(), f.bundle));
}

TEST(SpendTest, ForeignCertificateRejected) {
  // A certificate from a different bank key must fail the pairing check.
  SpendFixture f = make_spend_fixture(150);
  DecBank other_bank = make_bank(151);
  EXPECT_FALSE(
      verify_spend(dec_params(), other_bank.public_key(), f.bundle));
}

TEST(SpendTest, UncertifiedWalletCannotForge) {
  // Self-signed certificate: forge (a, b, c) without the bank's secret.
  SecureRandom rng(160);
  DecBank bank = make_bank(161);
  DecWallet wallet(dec_params(), rng);
  ClSignature fake;
  fake.a = dec_params().pairing.g;
  fake.b = ec_mul(fake.a, Bigint(7), dec_params().pairing.p);
  fake.c = ec_mul(fake.a, Bigint(9), dec_params().pairing.p);
  const SpendBundle forged =
      make_spend(dec_params(), bank.public_key(),
                 wallet.secret_for_testing(), fake, NodeIndex{1, 0}, rng, {});
  EXPECT_FALSE(verify_spend(dec_params(), bank.public_key(), forged));
}

TEST(SpendTest, ContextTamperRejected) {
  SpendFixture f = make_spend_fixture(170);
  f.bundle.context = bytes_of("payee-78");  // redirect the payment
  EXPECT_FALSE(verify_spend(dec_params(), f.bank().public_key(), f.bundle));
}

TEST(SpendTest, CertSwapRejected) {
  // Replace the certificate with a fresh re-randomization: the proof was
  // bound to the original (a,b,c), so the statement no longer matches.
  SpendFixture f = make_spend_fixture(180);
  SecureRandom rng(181);
  f.bundle.cert = cl_randomize(dec_params().pairing, f.bundle.cert, rng);
  EXPECT_FALSE(verify_spend(dec_params(), f.bank().public_key(), f.bundle));
}

TEST(SpendTest, SerializationRoundTrip) {
  const SpendFixture f = make_spend_fixture(190);
  const SpendBundle copy = SpendBundle::deserialize(
      dec_params(), f.bundle.serialize(dec_params()));
  EXPECT_TRUE(verify_spend(dec_params(), f.bank().public_key(), copy));
  EXPECT_EQ(copy.node, f.bundle.node);
  EXPECT_EQ(copy.path_serials, f.bundle.path_serials);
}

TEST(SpendTest, NonCanonicalInfinityInCertRejectedAtDecode) {
  // A certificate point at infinity must carry zero coordinates; junk
  // under the flag would give one spend many byte encodings.
  const SpendFixture f = make_spend_fixture(195);
  const EcPoint junk{Bigint(5), Bigint(7), true};
  for (const bool in_b : {true, false}) {
    SpendBundle tampered = f.bundle;
    (in_b ? tampered.cert.b : tampered.cert.c) = junk;
    EXPECT_THROW(SpendBundle::deserialize(dec_params(),
                                          tampered.serialize(dec_params())),
                 std::invalid_argument)
        << (in_b ? "b" : "c");
    // The canonical encoding of the same point still decodes.
    (in_b ? tampered.cert.b : tampered.cert.c) = EcPoint::at_infinity();
    const SpendBundle copy = SpendBundle::deserialize(
        dec_params(), tampered.serialize(dec_params()));
    EXPECT_TRUE((in_b ? copy.cert.b : copy.cert.c).infinity);
  }
}

TEST(SpendTest, SpendsOfSameWalletAreCertUnlinkable) {
  // Two spends re-randomize the certificate independently.
  DecBank bank = make_bank(200);
  DecWallet wallet = make_funded_wallet(bank, 201);
  SecureRandom rng(202);
  const SpendBundle s1 =
      wallet.spend(*wallet.allocate(1), bank.public_key(), rng, {});
  const SpendBundle s2 =
      wallet.spend(*wallet.allocate(1), bank.public_key(), rng, {});
  EXPECT_FALSE(s1.cert.a == s2.cert.a);
  EXPECT_FALSE(s1.cert.c == s2.cert.c);
}

TEST(SpendTest, OutOfRangeNodeRejected) {
  SpendFixture f = make_spend_fixture(210);
  f.bundle.node.depth = dec_params().L + 1;
  EXPECT_FALSE(verify_spend(dec_params(), f.bank().public_key(), f.bundle));
}

}  // namespace
}  // namespace ppms
