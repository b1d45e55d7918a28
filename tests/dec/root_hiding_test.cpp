#include "dec/root_hiding.h"

#include <gtest/gtest.h>

#include "dec_fixture.h"

namespace ppms {
namespace {

using testing::dec_params;
using testing::make_bank;
using testing::make_funded_wallet;

// Fewer rounds keep the suite fast; soundness scaling is tested
// explicitly below.
constexpr std::size_t kRounds = 16;

struct Fixture {
  std::shared_ptr<DecBank> bank;
  DecWallet wallet;
};

Fixture make_fixture(std::uint64_t seed) {
  SecureRandom rng(seed);
  auto bank = std::make_shared<DecBank>(dec_params(), rng);
  DecWallet wallet = make_funded_wallet(*bank, seed + 1);
  return {std::move(bank), std::move(wallet)};
}

RootHidingSpend spend_at(Fixture& fx, const NodeIndex& node,
                         std::uint64_t seed) {
  SecureRandom rng(seed);
  return make_root_hiding_spend(
      dec_params(), fx.bank->public_key(),
      fx.wallet.secret_for_testing(),
      // Any valid certificate works; pull a fresh spend's randomized one.
      fx.wallet.spend(node, fx.bank->public_key(), rng, {}).cert, node, rng,
      bytes_of("payee"), kRounds);
}

TEST(RootHidingTest, HonestSpendVerifies) {
  Fixture fx = make_fixture(10);
  const RootHidingSpend spend = spend_at(fx, NodeIndex{2, 1}, 11);
  EXPECT_TRUE(verify_root_hiding_spend(dec_params(), fx.bank->public_key(),
                                       spend, kRounds));
}

TEST(RootHidingTest, WalletHelperWorks) {
  Fixture fx = make_fixture(20);
  SecureRandom rng(21);
  const RootHidingSpend spend = fx.wallet.spend_hiding(
      NodeIndex{3, 5}, fx.bank->public_key(), rng, bytes_of("p"));
  EXPECT_TRUE(verify_root_hiding_spend(dec_params(), fx.bank->public_key(),
                                       spend));
}

TEST(RootHidingTest, RootSerialIsAbsent) {
  Fixture fx = make_fixture(30);
  SecureRandom rng(31);
  const NodeIndex node{3, 2};
  const RootHidingSpend hiding = fx.wallet.spend_hiding(
      node, fx.bank->public_key(), rng, {});
  const SpendBundle regular =
      fx.wallet.spend(node, fx.bank->public_key(), rng, {});
  // The regular spend exposes S_0..S_3; the hiding spend only S_1..S_3.
  EXPECT_EQ(hiding.path_serials.size(), 3u);
  EXPECT_EQ(regular.path_serials.size(), 4u);
  EXPECT_EQ(hiding.path_serials.front(), regular.path_serials[1]);
  for (const Bigint& s : hiding.path_serials) {
    EXPECT_NE(s, regular.path_serials[0]);
  }
}

TEST(RootHidingTest, RootNodeRejectedAtProve) {
  Fixture fx = make_fixture(40);
  SecureRandom rng(41);
  EXPECT_THROW(fx.wallet.spend_hiding(NodeIndex{0, 0},
                                      fx.bank->public_key(), rng, {}),
               std::invalid_argument);
}

TEST(RootHidingTest, TamperedSerialRejected) {
  Fixture fx = make_fixture(50);
  RootHidingSpend spend = spend_at(fx, NodeIndex{2, 0}, 51);
  const ZnGroup& g = dec_params().tower[spend.node.depth];
  spend.path_serials.back() =
      g.decode(g.pow(g.generator(), Bigint(424242)));
  EXPECT_FALSE(verify_root_hiding_spend(dec_params(),
                                        fx.bank->public_key(), spend,
                                        kRounds));
}

TEST(RootHidingTest, WrongFirstBranchBitRejected) {
  // Flipping b_1 changes the tower statement Y: the proof must die.
  Fixture fx = make_fixture(60);
  RootHidingSpend spend = spend_at(fx, NodeIndex{2, 2}, 61);
  spend.node.index ^= 2;  // flips branch_bit(1) at depth 2
  EXPECT_FALSE(verify_root_hiding_spend(dec_params(),
                                        fx.bank->public_key(), spend,
                                        kRounds));
}

TEST(RootHidingTest, TamperedResponseRejected) {
  Fixture fx = make_fixture(70);
  RootHidingSpend spend = spend_at(fx, NodeIndex{1, 1}, 71);
  spend.responses[3] =
      (spend.responses[3] + Bigint(1)).mod(dec_params().pairing.r);
  EXPECT_FALSE(verify_root_hiding_spend(dec_params(),
                                        fx.bank->public_key(), spend,
                                        kRounds));
}

TEST(RootHidingTest, ForeignBankKeyRejected) {
  Fixture fx = make_fixture(80);
  const RootHidingSpend spend = spend_at(fx, NodeIndex{1, 0}, 81);
  DecBank other = make_bank(82);
  EXPECT_FALSE(verify_root_hiding_spend(dec_params(), other.public_key(),
                                        spend, kRounds));
}

TEST(RootHidingTest, RoundCountMismatchRejected) {
  Fixture fx = make_fixture(90);
  const RootHidingSpend spend = spend_at(fx, NodeIndex{1, 0}, 91);
  EXPECT_FALSE(verify_root_hiding_spend(dec_params(),
                                        fx.bank->public_key(), spend,
                                        kRounds + 1));
}

TEST(RootHidingTest, ContextTamperRejected) {
  Fixture fx = make_fixture(100);
  RootHidingSpend spend = spend_at(fx, NodeIndex{2, 3}, 101);
  spend.context = bytes_of("other-payee");
  EXPECT_FALSE(verify_root_hiding_spend(dec_params(),
                                        fx.bank->public_key(), spend,
                                        kRounds));
}

TEST(RootHidingTest, SerializationRoundTrip) {
  Fixture fx = make_fixture(110);
  const RootHidingSpend spend = spend_at(fx, NodeIndex{3, 6}, 111);
  const RootHidingSpend copy = RootHidingSpend::deserialize(
      dec_params(), spend.serialize(dec_params()));
  EXPECT_TRUE(verify_root_hiding_spend(dec_params(),
                                       fx.bank->public_key(), copy,
                                       kRounds));
}

// --- bank integration --------------------------------------------------------

TEST(RootHidingBankTest, DepositCreditsValue) {
  Fixture fx = make_fixture(120);
  SecureRandom rng(121);
  const RootHidingSpend spend = fx.wallet.spend_hiding(
      NodeIndex{1, 0}, fx.bank->public_key(), rng, {});
  const auto result = fx.bank->deposit(spend);
  EXPECT_TRUE(result.accepted()) << result.reason;
  EXPECT_EQ(result.value, 4u);
}

TEST(RootHidingBankTest, SameNodeTwiceRejected) {
  Fixture fx = make_fixture(130);
  SecureRandom rng(131);
  const auto s1 = fx.wallet.spend_hiding(NodeIndex{2, 1},
                                         fx.bank->public_key(), rng, {});
  const auto s2 = fx.wallet.spend_hiding(NodeIndex{2, 1},
                                         fx.bank->public_key(), rng,
                                         bytes_of("other"));
  EXPECT_TRUE(fx.bank->deposit(s1).accepted());
  EXPECT_FALSE(fx.bank->deposit(s2).accepted());
}

TEST(RootHidingBankTest, ConflictsWithRegularSpendOfAncestor) {
  Fixture fx = make_fixture(140);
  SecureRandom rng(141);
  const SpendBundle ancestor =
      fx.wallet.spend(NodeIndex{1, 0}, fx.bank->public_key(), rng, {});
  const RootHidingSpend leaf = fx.wallet.spend_hiding(
      NodeIndex{3, 1}, fx.bank->public_key(), rng, {});
  EXPECT_TRUE(fx.bank->deposit(ancestor).accepted());
  EXPECT_FALSE(fx.bank->deposit(leaf).accepted());
}

TEST(RootHidingBankTest, ConflictsWithWholeCoinSpend) {
  // The depth-0 special case: a regular root deposit fences its children,
  // so a later hiding spend (which never shows S_0) still collides.
  Fixture fx = make_fixture(150);
  SecureRandom rng(151);
  const SpendBundle root =
      fx.wallet.spend(NodeIndex{0, 0}, fx.bank->public_key(), rng, {});
  const RootHidingSpend child = fx.wallet.spend_hiding(
      NodeIndex{2, 3}, fx.bank->public_key(), rng, {});
  EXPECT_TRUE(fx.bank->deposit(root).accepted());
  EXPECT_FALSE(fx.bank->deposit(child).accepted());
}

TEST(RootHidingBankTest, WholeCoinAfterHidingSpendRejected) {
  Fixture fx = make_fixture(160);
  SecureRandom rng(161);
  const RootHidingSpend child = fx.wallet.spend_hiding(
      NodeIndex{3, 7}, fx.bank->public_key(), rng, {});
  const SpendBundle root =
      fx.wallet.spend(NodeIndex{0, 0}, fx.bank->public_key(), rng, {});
  EXPECT_TRUE(fx.bank->deposit(child).accepted());
  const auto result = fx.bank->deposit(root);
  EXPECT_FALSE(result.accepted());
}

TEST(RootHidingBankTest, DisjointSubtreesBothAccepted) {
  Fixture fx = make_fixture(170);
  SecureRandom rng(171);
  const auto left = fx.wallet.spend_hiding(NodeIndex{1, 0},
                                           fx.bank->public_key(), rng, {});
  const auto right = fx.wallet.spend_hiding(NodeIndex{1, 1},
                                            fx.bank->public_key(), rng,
                                            {});
  EXPECT_TRUE(fx.bank->deposit(left).accepted());
  EXPECT_TRUE(fx.bank->deposit(right).accepted());
}

TEST(RootHidingBankTest, MixedRegularAndHidingAcrossSubtrees) {
  Fixture fx = make_fixture(180);
  SecureRandom rng(181);
  // Regular spend of the left half, hiding spend of a right-half leaf.
  const SpendBundle left =
      fx.wallet.spend(NodeIndex{1, 0}, fx.bank->public_key(), rng, {});
  const RootHidingSpend right_leaf = fx.wallet.spend_hiding(
      NodeIndex{3, 6}, fx.bank->public_key(), rng, {});
  EXPECT_TRUE(fx.bank->deposit(left).accepted());
  EXPECT_TRUE(fx.bank->deposit(right_leaf).accepted());
}

}  // namespace
}  // namespace ppms
