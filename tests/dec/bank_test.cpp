#include "dec/bank.h"

#include <gtest/gtest.h>

#include <thread>
#include <variant>

#include "dec_fixture.h"

namespace ppms {
namespace {

using testing::dec_params;
using testing::make_bank;
using testing::make_funded_wallet;
using testing::members_of;

TEST(BankDepositTest, HonestDepositCreditsValue) {
  DecBank bank = make_bank(300);
  DecWallet wallet = make_funded_wallet(bank, 301);
  SecureRandom rng(302);
  const SpendBundle bundle =
      wallet.spend(*wallet.allocate(4), bank.public_key(), rng, {});
  const auto result = bank.deposit(bundle);
  EXPECT_TRUE(result.accepted()) << result.reason;
  EXPECT_EQ(result.value, 4u);
  EXPECT_EQ(bank.recorded_serials(), 2u);  // depth-1 node: S_0, S_1
}

TEST(BankDepositTest, SameNodeTwiceRejected) {
  DecBank bank = make_bank(310);
  DecWallet wallet = make_funded_wallet(bank, 311);
  SecureRandom rng(312);
  const auto node = wallet.allocate(2);
  const SpendBundle b1 = wallet.spend(*node, bank.public_key(), rng, {});
  // A re-spend of the same node (fresh proof) — e.g. paying two payees
  // with the same subtree.
  const SpendBundle b2 = wallet.spend(*node, bank.public_key(), rng,
                                      bytes_of("other-payee"));
  EXPECT_TRUE(bank.deposit(b1).accepted());
  const auto result = bank.deposit(b2);
  EXPECT_FALSE(result.accepted());
  EXPECT_NE(result.reason.find("double spend"), std::string::npos);
}

TEST(BankDepositTest, AncestorAfterDescendantRejected) {
  DecBank bank = make_bank(320);
  DecWallet wallet = make_funded_wallet(bank, 321);
  SecureRandom rng(322);
  // Spend leaf {3, 0}, then attempt its depth-1 ancestor {1, 0}.
  const SpendBundle leaf = wallet.spend(NodeIndex{3, 0}, bank.public_key(),
                                        rng, {});
  const SpendBundle ancestor = wallet.spend(NodeIndex{1, 0},
                                            bank.public_key(), rng, {});
  EXPECT_TRUE(bank.deposit(leaf).accepted());
  const auto result = bank.deposit(ancestor);
  EXPECT_FALSE(result.accepted());
}

TEST(BankDepositTest, DescendantAfterAncestorRejected) {
  DecBank bank = make_bank(330);
  DecWallet wallet = make_funded_wallet(bank, 331);
  SecureRandom rng(332);
  const SpendBundle ancestor = wallet.spend(NodeIndex{1, 1},
                                            bank.public_key(), rng, {});
  const SpendBundle leaf = wallet.spend(NodeIndex{3, 7}, bank.public_key(),
                                        rng, {});
  EXPECT_TRUE(bank.deposit(ancestor).accepted());
  const auto result = bank.deposit(leaf);
  EXPECT_FALSE(result.accepted());
  EXPECT_NE(result.reason.find("ancestor"), std::string::npos);
}

TEST(BankDepositTest, DisjointSubtreesBothAccepted) {
  DecBank bank = make_bank(340);
  DecWallet wallet = make_funded_wallet(bank, 341);
  SecureRandom rng(342);
  const SpendBundle left = wallet.spend(NodeIndex{1, 0}, bank.public_key(),
                                        rng, {});
  const SpendBundle right_leaf = wallet.spend(NodeIndex{3, 4},
                                              bank.public_key(), rng, {});
  EXPECT_TRUE(bank.deposit(left).accepted());
  EXPECT_TRUE(bank.deposit(right_leaf).accepted());
}

TEST(BankDepositTest, TwoWalletsDoNotCollide) {
  DecBank bank = make_bank(350);
  DecWallet w1 = make_funded_wallet(bank, 351);
  DecWallet w2 = make_funded_wallet(bank, 352);
  SecureRandom rng(353);
  EXPECT_TRUE(
      bank.deposit(w1.spend(NodeIndex{0, 0}, bank.public_key(), rng, {}))
          .accepted());
  EXPECT_TRUE(
      bank.deposit(w2.spend(NodeIndex{0, 0}, bank.public_key(), rng, {}))
          .accepted());
}

TEST(BankDepositTest, InvalidBundleRejectedBeforeDb) {
  DecBank bank = make_bank(360);
  DecWallet wallet = make_funded_wallet(bank, 361);
  SecureRandom rng(362);
  SpendBundle bundle =
      wallet.spend(*wallet.allocate(1), bank.public_key(), rng, {});
  bundle.node.index ^= 1;
  const auto result = bank.deposit(bundle);
  EXPECT_FALSE(result.accepted());
  EXPECT_EQ(result.reason, "spend verification failed");
  EXPECT_EQ(bank.recorded_serials(), 0u);
}

TEST(BankDepositTest, FullCoinAsLeavesSumsToRootValue) {
  DecBank bank = make_bank(370);
  DecWallet wallet = make_funded_wallet(bank, 371);
  SecureRandom rng(372);
  std::uint64_t credited = 0;
  for (int i = 0; i < 8; ++i) {
    const SpendBundle bundle =
        wallet.spend(*wallet.allocate(1), bank.public_key(), rng, {});
    const auto result = bank.deposit(bundle);
    ASSERT_TRUE(result.accepted()) << result.reason;
    credited += result.value;
  }
  EXPECT_EQ(credited, dec_params().root_value());
}

TEST(BankDepositTest, ConcurrentDoubleSpendOnlyOneAccepted) {
  DecBank bank = make_bank(380);
  DecWallet wallet = make_funded_wallet(bank, 381);
  SecureRandom rng(382);
  const auto node = wallet.allocate(2);
  const SpendBundle b1 = wallet.spend(*node, bank.public_key(), rng, {});
  const SpendBundle b2 = wallet.spend(*node, bank.public_key(), rng,
                                      bytes_of("x"));
  SettleOutcome r1, r2;
  std::thread t1([&] { r1 = bank.deposit(b1); });
  std::thread t2([&] { r2 = bank.deposit(b2); });
  t1.join();
  t2.join();
  EXPECT_NE(r1.accepted(), r2.accepted());
}

/// verify_batch, then settle_verified of every verified member in listed
/// order (rejected with kSpendRejected otherwise).
std::vector<SettleOutcome> settle_batch(DecBank& bank,
                                        const std::vector<DepositSpend>& spends) {
  const std::vector<bool> ok = bank.verify_batch(members_of(spends));
  std::vector<SettleOutcome> out;
  for (std::size_t i = 0; i < spends.size(); ++i) {
    out.push_back(ok[i] ? std::visit(
                              [&bank](const auto& s) {
                                return bank.settle_verified(s);
                              },
                              spends[i])
                        : SettleOutcome::rejected(MarketErrc::kSpendRejected,
                                                  "spend verification failed"));
  }
  return out;
}

TEST(BankBatchTest, VerifyBatchMatchesPerDepositVerifiers) {
  DecBank bank = make_bank(400);
  DecWallet wallet = make_funded_wallet(bank, 401);
  SecureRandom rng(402);
  // Regular, hiding, regular...: flags come back in input order.
  std::vector<DepositSpend> spends;
  spends.emplace_back(
      wallet.spend(NodeIndex{3, 4}, bank.public_key(), rng, {}));
  spends.emplace_back(
      wallet.spend_hiding(NodeIndex{1, 0}, bank.public_key(), rng, {}));
  for (std::uint64_t i = 5; i < 8; ++i) {
    spends.emplace_back(
        wallet.spend(NodeIndex{3, i}, bank.public_key(), rng, {}));
  }
  const std::vector<bool> ok = bank.verify_batch(members_of(spends));
  ASSERT_EQ(ok.size(), spends.size());
  EXPECT_EQ(ok[1], verify_root_hiding_spend(
                       bank.params(), bank.public_key(),
                       std::get<RootHidingSpend>(spends[1])));
  for (const std::size_t i : {0, 2, 3, 4}) {
    EXPECT_EQ(ok[i], verify_spend(bank.params(), bank.public_key(),
                                  std::get<SpendBundle>(spends[i])))
        << "spend " << i;
  }
  for (const bool flag : ok) EXPECT_TRUE(flag);
}

TEST(BankBatchTest, ForgedCertInBatchIsSingledOut) {
  // Tamper one spend's randomized certificate: the folded cert-equation
  // product rejects, and the exact fallback must blame only that member.
  DecBank bank = make_bank(410);
  DecWallet wallet = make_funded_wallet(bank, 411);
  SecureRandom rng(412);
  std::vector<DepositSpend> spends;
  for (std::uint64_t i = 0; i < 8; ++i) {
    spends.emplace_back(
        wallet.spend(NodeIndex{3, i}, bank.public_key(), rng, {}));
  }
  ClSignature& forged = std::get<SpendBundle>(spends[3]).cert;
  forged.b = ec_mul(forged.b, Bigint(2), bank.params().pairing.p);
  const std::vector<bool> ok = bank.verify_batch(members_of(spends));
  ASSERT_EQ(ok.size(), spends.size());
  for (std::size_t i = 0; i < ok.size(); ++i) {
    EXPECT_EQ(ok[i], i != 3) << "spend " << i;
  }
}

TEST(BankBatchTest, DepositBatchCommitsOnlyVerifiedMembers) {
  DecBank bank = make_bank(420);
  DecWallet wallet = make_funded_wallet(bank, 421);
  SecureRandom rng(422);
  std::vector<DepositSpend> spends;
  spends.emplace_back(
      wallet.spend_hiding(NodeIndex{2, 0}, bank.public_key(), rng, {}));
  SpendBundle broken =
      wallet.spend(NodeIndex{2, 1}, bank.public_key(), rng, {});
  // Corrupt the middle member's proof binding (wrong node index).
  broken.node.index ^= 1;
  spends.emplace_back(std::move(broken));
  spends.emplace_back(
      wallet.spend(NodeIndex{1, 1}, bank.public_key(), rng, {}));
  const auto results = settle_batch(bank, spends);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].accepted()) << results[0].reason;
  EXPECT_FALSE(results[1].accepted());
  EXPECT_EQ(results[1].errc, MarketErrc::kSpendRejected);
  EXPECT_TRUE(results[2].accepted()) << results[2].reason;
  EXPECT_EQ(results[0].value + results[2].value, 2u + 4u);
}

TEST(BankBatchTest, DepositBatchAndSequentialDepositsAgree) {
  // The same spends — interleaved kinds, with one coin listed twice —
  // through verify_batch + settle_verified in listed order and through
  // one deposit() per spend on a twin bank: same verdicts, same values,
  // same serial store.
  DecBank batch_bank = make_bank(430);
  DecBank serial_bank = make_bank(430);
  DecWallet w1 = make_funded_wallet(batch_bank, 431);
  DecWallet w2 = make_funded_wallet(serial_bank, 431);
  const auto build = [](DecBank& bank, DecWallet& wallet) {
    SecureRandom rng(432);
    std::vector<DepositSpend> spends;
    spends.emplace_back(
        wallet.spend(NodeIndex{2, 0}, bank.public_key(), rng, {}));
    spends.emplace_back(
        wallet.spend_hiding(NodeIndex{2, 2}, bank.public_key(), rng, {}));
    spends.emplace_back(
        wallet.spend(NodeIndex{2, 1}, bank.public_key(), rng, {}));
    spends.push_back(spends[1]);  // the hiding coin again
    spends.emplace_back(
        wallet.spend_hiding(NodeIndex{2, 3}, bank.public_key(), rng, {}));
    return spends;
  };
  const std::vector<DepositSpend> spends1 = build(batch_bank, w1);
  const std::vector<DepositSpend> spends2 = build(serial_bank, w2);
  const auto batch = settle_batch(batch_bank, spends1);
  ASSERT_EQ(batch.size(), spends1.size());
  for (std::size_t i = 0; i < spends2.size(); ++i) {
    const auto single = serial_bank.deposit(spends2[i]);
    EXPECT_EQ(batch[i].accepted(), single.accepted()) << "spend " << i;
    EXPECT_EQ(batch[i].errc, single.errc) << "spend " << i;
    EXPECT_EQ(batch[i].value, single.value) << "spend " << i;
  }
  EXPECT_FALSE(batch[3].accepted());
  EXPECT_EQ(batch[3].errc, MarketErrc::kDoubleSpend);
  EXPECT_EQ(batch_bank.recorded_serials(), serial_bank.recorded_serials());
}

}  // namespace
}  // namespace ppms
