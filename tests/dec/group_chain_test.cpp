#include "dec/group_chain.h"

#include <gtest/gtest.h>

#include "bigint/prime.h"
#include "dec_fixture.h"

namespace ppms {
namespace {

using testing::dec_params;

TEST(DecSetupTest, ChainHasTowerShape) {
  const DecParams& p = dec_params();
  ASSERT_GE(p.chain.primes.size(), p.L + 2);
  SecureRandom rng(1);
  for (std::size_t i = 0; i < p.L + 2; ++i) {
    EXPECT_TRUE(is_probable_prime(p.chain.primes[i], rng));
    if (i > 0) {
      EXPECT_EQ(p.chain.primes[i],
                p.chain.primes[i - 1] * Bigint(2) + Bigint(1));
    }
  }
}

TEST(DecSetupTest, PairingOrderIsFirstChainPrime) {
  EXPECT_EQ(dec_params().pairing.r, dec_params().chain.primes[0]);
}

TEST(DecSetupTest, TowerGroupsHaveMatchingOrders) {
  const DecParams& p = dec_params();
  ASSERT_EQ(p.tower.size(), p.L + 1);
  for (std::size_t d = 0; d <= p.L; ++d) {
    // tower[d] ⊂ Z*_{o_{d+2}} of order o_{d+1}.
    EXPECT_EQ(p.tower[d].modulus(), p.chain.primes[d + 1]);
    EXPECT_EQ(p.tower[d].order(), p.chain.primes[d]);
  }
}

TEST(DecSetupTest, NodeValues) {
  const DecParams& p = dec_params();
  EXPECT_EQ(p.root_value(), 8u);  // L = 3
  EXPECT_EQ(p.node_value(1), 4u);
  EXPECT_EQ(p.node_value(3), 1u);
  EXPECT_THROW(p.node_value(4), std::out_of_range);
}

TEST(DecSetupTest, SearchSourceWorksForSmallL) {
  SecureRandom rng(2);
  // L = 2 demands a length >= 6 chain; the search finds 89's chain fast.
  const DecParams p = dec_setup(rng, 2, ChainSource::kSearch, 96);
  EXPECT_EQ(p.chain.primes[0], Bigint(89));
  EXPECT_EQ(p.tower.size(), 3u);
}

TEST(DecSetupTest, RejectsExcessiveL) {
  SecureRandom rng(3);
  EXPECT_THROW(dec_setup(rng, 13, ChainSource::kTable), std::invalid_argument);
}

TEST(DecSetupTest, ExhaustedSearchThrows) {
  SecureRandom rng(4);
  EXPECT_THROW(dec_setup(rng, 3, ChainSource::kSearch, 96, 2),
               std::runtime_error);
}

// --- persistence (offline Setup, Section VI-A) -------------------------------

TEST(DecParamsSerde, RoundTripPreservesEverything) {
  SecureRandom rng(5);
  const DecParams& p = dec_params();
  const DecParams copy = DecParams::deserialize(p.serialize(), rng);
  EXPECT_EQ(copy.L, p.L);
  EXPECT_EQ(copy.chain.primes, p.chain.primes);
  EXPECT_EQ(copy.pairing.p, p.pairing.p);
  EXPECT_EQ(copy.pairing.g, p.pairing.g);
  ASSERT_EQ(copy.tower.size(), p.tower.size());
  for (std::size_t d = 0; d < p.tower.size(); ++d) {
    EXPECT_EQ(copy.tower[d].modulus(), p.tower[d].modulus());
    EXPECT_EQ(copy.tower[d].generator_value(),
              p.tower[d].generator_value());
  }
}

TEST(DecParamsSerde, LoadedParamsRunTheProtocol) {
  SecureRandom rng(6);
  const DecParams loaded =
      DecParams::deserialize(dec_params().serialize(), rng);
  DecBank bank(loaded, rng);
  DecWallet wallet(loaded, rng);
  const Bytes ctx = bytes_of("w");
  const auto cert = bank.withdraw(
      wallet.commitment(), wallet.prove_commitment(rng, ctx), ctx, rng);
  ASSERT_TRUE(cert.has_value());
  wallet.set_certificate(bank.public_key(), *cert);
  const SpendBundle spend =
      wallet.spend(NodeIndex{1, 1}, bank.public_key(), rng, {});
  EXPECT_TRUE(bank.deposit(spend).accepted());
}

TEST(DecParamsSerde, TamperedChainRejected) {
  SecureRandom rng(7);
  Bytes data = dec_params().serialize();
  // Flip a byte inside the serialized payload (past the header).
  data[data.size() / 2] ^= 0x01;
  EXPECT_THROW(DecParams::deserialize(data, rng), std::invalid_argument);
}

TEST(DecParamsSerde, TruncationRejected) {
  SecureRandom rng(8);
  Bytes data = dec_params().serialize();
  data.resize(data.size() - 5);
  EXPECT_THROW(DecParams::deserialize(data, rng), std::exception);
}

TEST(DecParamsSerde, TrailingBytesRejected) {
  SecureRandom rng(9);
  Bytes data = dec_params().serialize();
  data.push_back(0);
  EXPECT_THROW(DecParams::deserialize(data, rng), std::invalid_argument);
}

TEST(DecParamsSerde, OrderDividingCofactorRejected) {
  // The published chain and r, but a field prime p = r·h - 1 with r | h.
  // Every other check (chain, primality, p ≡ 3 mod 4, a generator of
  // order r) still passes, so only the cofactor check can refuse it.
  SecureRandom rng(10);
  DecParams bad = dec_params();
  const Bigint& r = bad.pairing.r;
  Bigint h, p;
  for (Bigint m(1);; m += Bigint(1)) {
    h = r * Bigint(4) * m;
    p = r * h - Bigint(1);
    if (is_probable_prime(p, rng)) break;
  }
  EcPoint g = EcPoint::at_infinity();
  while (g.infinity) g = ec_mul(ec_random_point(rng, p), h, p);
  ASSERT_TRUE(ec_mul(g, r, p).infinity);
  bad.pairing = TypeAParams{p, r, h, g};
  try {
    DecParams::deserialize(bad.serialize(), rng);
    ADD_FAILURE() << "accepted r | h";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("r divides h"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace ppms
