// Tier-2 concurrency stress for the full markets: several session threads
// drive complete protocol rounds through ONE shared market administrator,
// exercising the sharded DEC bank, the sharded fiat ledger, the pending
// files and the parallel scheduler drain together. Run under
// ThreadSanitizer in CI (label: concurrency).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/params.h"

namespace ppms {
namespace {

TEST(MarketStressTest, ConcurrentDecRoundsSettleEveryPayment) {
  PpmsDecConfig config;
  config.rsa_bits = 1024;
  config.strategy = CashBreakStrategy::kEpcba;
  config.settle_threads = 4;
  PpmsDecMarket market(fast_dec_params(/*seed=*/90, /*L=*/4), config, 91);

  constexpr int kSessions = 4;
  constexpr int kRounds = 2;
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&market, s] {
      for (int r = 0; r < kRounds; ++r) {
        const std::string tag =
            std::to_string(s) + "-" + std::to_string(r);
        const std::uint64_t payment = 3 + (s + r) % 5;
        const auto check = market.run_round("jo-" + tag, "sp-" + tag,
                                            "job", payment, bytes_of("d"));
        EXPECT_TRUE(check.signature_ok);
        EXPECT_EQ(check.value, payment);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  market.settle();  // drain any deposits still pending from late rounds

  for (int s = 0; s < kSessions; ++s) {
    for (int r = 0; r < kRounds; ++r) {
      const std::string tag = std::to_string(s) + "-" + std::to_string(r);
      const auto aid = market.infra().bank.find_account("sp-" + tag);
      ASSERT_TRUE(aid.has_value()) << tag;
      EXPECT_EQ(market.infra().bank.balance(*aid),
                static_cast<std::int64_t>(3 + (s + r) % 5))
          << tag;
    }
  }
}

TEST(MarketStressTest, ConcurrentPbsRoundsEachTransferOneUnit) {
  PpmsPbsMarket market = make_fast_pbs_market(95);
  constexpr int kSessions = 6;
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&market, s] {
      PbsOwnerSession jo =
          market.enroll_owner("lab-" + std::to_string(s));
      PbsParticipantSession sp =
          market.enroll_participant("w-" + std::to_string(s));
      EXPECT_TRUE(market.run_round(jo, sp, bytes_of("d")));
      EXPECT_EQ(market.infra().bank.balance(sp.account.aid), 1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(market.used_serials(), static_cast<std::size_t>(kSessions));
}

TEST(MarketStressTest, BatchDepositRejectsIntraBatchDoubleSpends) {
  // Run the protocol up to open_payment to obtain verified coins, then
  // have two threads each hand the DEC bank a batch containing every coin
  // twice. verify_batch accepts every copy cryptographically (both
  // batches verify concurrently); settling in listed order must admit
  // each serial exactly once overall, and never a batch's second copy.
  PpmsDecConfig config;
  config.rsa_bits = 1024;
  config.strategy = CashBreakStrategy::kEpcba;
  PpmsDecMarket market(fast_dec_params(/*seed=*/97, /*L=*/4), config, 98);
  JobOwnerSession jo = market.register_job("jo", "job", 5);
  market.withdraw(jo);
  ParticipantSession sp = market.register_labor("sp", jo);
  market.submit_payment(jo, sp);
  market.submit_data(sp, bytes_of("d"));
  market.deliver_payment(sp);
  const auto check = market.open_payment(sp);
  ASSERT_TRUE(check.signature_ok);
  ASSERT_FALSE(sp.coins.empty());

  std::vector<DepositSpend> batch(sp.coins.begin(), sp.coins.end());
  batch.insert(batch.end(), sp.coins.begin(), sp.coins.end());
  std::vector<const DepositSpend*> members;
  for (const DepositSpend& coin : batch) members.push_back(&coin);
  DecBank& bank = market.dec_bank();
  std::atomic<std::uint64_t> credited{0};
  std::atomic<std::size_t> accepted{0};
  auto depositor = [&] {
    const std::vector<bool> ok = bank.verify_batch(members);
    ASSERT_EQ(ok.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(ok[i]) << i;
      const SettleOutcome result =
          bank.settle_verified(std::get<SpendBundle>(batch[i]));
      if (i >= sp.coins.size()) {
        EXPECT_FALSE(result.accepted()) << i;
      }
      if (result.accepted()) {
        accepted.fetch_add(1);
        credited.fetch_add(result.value);
      }
    }
  };
  std::thread a(depositor);
  std::thread b(depositor);
  a.join();
  b.join();
  EXPECT_EQ(accepted.load(), sp.coins.size());
  EXPECT_EQ(credited.load(), check.value);
}

TEST(MarketStressTest, ConcurrentDirectDepositsAdmitEachCoinOnce) {
  // Two threads race the SAME spend bundles straight into the bank (no
  // scheduler): the striped store must admit each coin exactly once
  // regardless of which thread wins each stripe.
  PpmsDecConfig config;
  config.rsa_bits = 1024;
  config.strategy = CashBreakStrategy::kEpcba;
  PpmsDecMarket market(fast_dec_params(/*seed=*/99, /*L=*/4), config, 100);
  JobOwnerSession jo = market.register_job("jo", "job", 7);
  market.withdraw(jo);
  ParticipantSession sp = market.register_labor("sp", jo);
  market.submit_payment(jo, sp);
  market.submit_data(sp, bytes_of("d"));
  market.deliver_payment(sp);
  ASSERT_TRUE(market.open_payment(sp).signature_ok);

  std::atomic<std::uint64_t> credited{0};
  auto depositor = [&] {
    for (const SpendBundle& coin : sp.coins) {
      const auto result = market.dec_bank().deposit(coin);
      if (result.accepted()) credited.fetch_add(result.value);
    }
  };
  std::thread a(depositor);
  std::thread b(depositor);
  a.join();
  b.join();
  EXPECT_EQ(credited.load(), sp.verified_value);
}

}  // namespace
}  // namespace ppms
