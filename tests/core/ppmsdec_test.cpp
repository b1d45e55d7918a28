#include "core/ppmsdec.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>

#include "core/params.h"
#include "dec/bank.h"
#include "dec/wallet.h"
#include "support/market_error_assert.h"

namespace ppms {
namespace {

PpmsDecMarket make_market(std::uint64_t seed,
                          CashBreakStrategy strategy =
                              CashBreakStrategy::kEpcba) {
  PpmsDecConfig config;
  config.rsa_bits = 1024;
  config.strategy = strategy;
  return PpmsDecMarket(fast_dec_params(seed), config, seed + 1);
}

TEST(PpmsDecTest, FullRoundPaysAndSettles) {
  PpmsDecMarket market = make_market(1);
  const auto check = market.run_round("hospital", "patient-7", "hiv-study",
                                      5, bytes_of("vitals"));
  EXPECT_TRUE(check.signature_ok);
  EXPECT_EQ(check.value, 5u);
  // The SP's account received the full payment through deposits.
  const auto aid = market.infra().bank.find_account("patient-7");
  ASSERT_TRUE(aid.has_value());
  EXPECT_EQ(market.infra().bank.balance(*aid), 5);
  // The JO's account was debited the whole coin 2^L.
  const auto jo_aid = market.infra().bank.find_account("hospital");
  EXPECT_EQ(market.infra().bank.balance(*jo_aid),
            static_cast<std::int64_t>(market.config().initial_balance) - 8);
}

TEST(PpmsDecTest, DecRoundAtEightLevels) {
  // At L = 8 the deepest tower moduli reach 65 bits, an odd number of
  // 32-bit limbs: those groups ran on a separate 32-bit Montgomery kernel
  // until FpCtx became the only one. A leaf spend walks every level.
  const DecParams params = fast_dec_params(808, 8);
  EXPECT_GE(params.tower.back().modulus().bit_length(), 65u);
  SecureRandom rng(809);
  DecBank bank(params, rng);
  DecWallet wallet(params, rng);
  const Bytes ctx = bytes_of("withdraw");
  const auto cert = bank.withdraw(wallet.commitment(),
                                  wallet.prove_commitment(rng, ctx), ctx, rng);
  ASSERT_TRUE(cert.has_value());
  wallet.set_certificate(bank.public_key(), *cert);
  const SpendBundle bundle =
      wallet.spend(*wallet.allocate(1), bank.public_key(), rng, {});
  EXPECT_EQ(bundle.node.depth, 8u);
  const SettleOutcome first = bank.deposit(bundle);
  EXPECT_TRUE(first.accepted()) << first.reason;
  EXPECT_EQ(first.value, 1u);
  const SettleOutcome again = bank.deposit(bundle);
  EXPECT_FALSE(again.accepted());
  ASSERT_TRUE(again.errc.has_value());
  EXPECT_EQ(*again.errc, MarketErrc::kDoubleSpend);
}

TEST(PpmsDecTest, EpcbaBreaksPowerOfTwoIntoMultipleCoins) {
  PpmsDecMarket market = make_market(2);
  const auto check =
      market.run_round("jo", "sp", "job", 8, bytes_of("data"));
  EXPECT_EQ(check.value, 8u);
  EXPECT_EQ(check.real_coins, 4u);  // {1,2,4}+1 per Algorithm 3
}

TEST(PpmsDecTest, UnitaryStrategySendsFakeCoins) {
  PpmsDecMarket market = make_market(3, CashBreakStrategy::kUnitary);
  const auto check =
      market.run_round("jo", "sp", "job", 3, bytes_of("data"));
  EXPECT_EQ(check.value, 3u);
  EXPECT_EQ(check.real_coins, 3u);
  EXPECT_EQ(check.fake_coins, 5u);  // 2^3 - 3 fakes
}

TEST(PpmsDecTest, BulletinCarriesOnlyPseudonym) {
  PpmsDecMarket market = make_market(4);
  JobOwnerSession jo = market.register_job("owner-id", "noise-map", 5);
  const auto profile = market.infra().bulletin.get(jo.job_id);
  ASSERT_TRUE(profile.has_value());
  // The published pseudonym is the session key, not anything tied to the
  // account identity.
  EXPECT_EQ(profile->owner_pseudonym, jo.session_keys.pub.serialize());
  EXPECT_EQ(profile->payment, 5u);
  const std::string serialized(profile->owner_pseudonym.begin(),
                               profile->owner_pseudonym.end());
  EXPECT_EQ(serialized.find("owner-id"), std::string::npos);
}

TEST(PpmsDecTest, WithdrawRequiresFunds) {
  PpmsDecConfig config;
  config.rsa_bits = 1024;
  config.initial_balance = 1;  // cannot cover the 2^L withdrawal
  PpmsDecMarket market(fast_dec_params(5), config, 6);
  JobOwnerSession jo = market.register_job("poor-owner", "job", 2);
  EXPECT_EQ(market_errc([&] { market.withdraw(jo); }),
            MarketErrc::kInsufficientFunds);
}

TEST(PpmsDecTest, PaymentHeldUntilDataSubmitted) {
  PpmsDecMarket market = make_market(6);
  JobOwnerSession jo = market.register_job("jo", "job", 2);
  market.withdraw(jo);
  ParticipantSession sp = market.register_labor("sp", jo);
  market.submit_payment(jo, sp);
  // No data report yet: the MA refuses delivery.
  EXPECT_EQ(market_errc([&] { market.deliver_payment(sp); }),
            MarketErrc::kProtocolOrder);
  market.submit_data(sp, bytes_of("report"));
  EXPECT_NO_THROW(market.deliver_payment(sp));
}

TEST(PpmsDecTest, DataReleasedToOwnerAfterConfirmation) {
  PpmsDecMarket market = make_market(7);
  JobOwnerSession jo = market.register_job("jo", "job", 2);
  market.withdraw(jo);
  ParticipantSession sp = market.register_labor("sp", jo);
  market.submit_payment(jo, sp);
  market.submit_data(sp, bytes_of("the-sensing-data"));
  market.deliver_payment(sp);
  EXPECT_TRUE(jo.received_reports.empty());
  market.open_payment(sp);
  market.confirm_and_release_data(sp, jo);
  ASSERT_EQ(jo.received_reports.size(), 1u);
  EXPECT_EQ(jo.received_reports[0], bytes_of("the-sensing-data"));
}

TEST(PpmsDecTest, DoubleDepositOfSameCoinsRejected) {
  PpmsDecMarket market = make_market(8);
  JobOwnerSession jo = market.register_job("jo", "job", 3);
  market.withdraw(jo);
  ParticipantSession sp = market.register_labor("sp", jo);
  market.submit_payment(jo, sp);
  market.submit_data(sp, bytes_of("r"));
  market.deliver_payment(sp);
  market.open_payment(sp);
  // Keep a copy of the coins, deposit them, then replay.
  const std::vector<SpendBundle> replay = sp.coins;
  market.deposit_coins(sp);
  market.settle();
  const auto aid = *market.infra().bank.find_account("sp");
  EXPECT_EQ(market.infra().bank.balance(aid), 3);
  for (const SpendBundle& coin : replay) {
    EXPECT_FALSE(market.dec_bank().deposit(coin).accepted());
  }
  EXPECT_EQ(market.infra().bank.balance(aid), 3);
}

TEST(PpmsDecTest, InvalidDepositDelayRangeThrowsAndKeepsCoins) {
  // An inverted range (including min = max + 1) and a full-width one:
  // deposit_coins must reject both before any coin leaves the session,
  // instead of drawing from a wrapped or empty span.
  const std::pair<std::uint64_t, std::uint64_t> kRanges[] = {
      {5, 3}, {4, 3}, {0, std::numeric_limits<std::uint64_t>::max()}};
  for (const auto& [min_delay, max_delay] : kRanges) {
    SCOPED_TRACE(std::to_string(min_delay) + ".." +
                 std::to_string(max_delay));
    PpmsDecConfig config;
    config.rsa_bits = 1024;
    config.min_deposit_delay = min_delay;
    config.max_deposit_delay = max_delay;
    config.hide_roots = min_delay == 4;  // cover the hiding-coin list too
    PpmsDecMarket market(fast_dec_params(46), config, 47);
    JobOwnerSession jo = market.register_job("jo", "job", 5);
    market.withdraw(jo);
    ParticipantSession sp = market.register_labor("sp", jo);
    market.submit_payment(jo, sp);
    market.submit_data(sp, bytes_of("r"));
    market.deliver_payment(sp);
    market.open_payment(sp);
    const std::size_t coins = sp.coins.size();
    const std::size_t hiding_coins = sp.hiding_coins.size();
    ASSERT_GT(coins + hiding_coins, 0u);
    EXPECT_EQ(market_errc([&] { market.deposit_coins(sp); }),
              MarketErrc::kInvalidSchedule);
    EXPECT_EQ(sp.coins.size(), coins);
    EXPECT_EQ(sp.hiding_coins.size(), hiding_coins);
    EXPECT_EQ(market.infra().scheduler.pending(), 0u);
  }
}

TEST(PpmsDecTest, TwoParticipantsOneJob) {
  PpmsDecMarket market = make_market(9);
  JobOwnerSession jo = market.register_job("jo", "job", 2);
  market.withdraw(jo);
  ParticipantSession sp1 = market.register_labor("sp-1", jo);
  ParticipantSession sp2 = market.register_labor("sp-2", jo);
  market.submit_payment(jo, sp1);
  market.submit_payment(jo, sp2);
  for (auto* sp : {&sp1, &sp2}) {
    market.submit_data(*sp, bytes_of("r"));
    market.deliver_payment(*sp);
    const auto check = market.open_payment(*sp);
    EXPECT_TRUE(check.signature_ok);
    EXPECT_EQ(check.value, 2u);
    market.deposit_coins(*sp);
  }
  market.settle();
  EXPECT_EQ(market.infra().bank.balance(
                *market.infra().bank.find_account("sp-1")), 2);
  EXPECT_EQ(market.infra().bank.balance(
                *market.infra().bank.find_account("sp-2")), 2);
}

TEST(PpmsDecTest, TrafficIsAccounted) {
  PpmsDecMarket market = make_market(10);
  market.run_round("jo", "sp", "job", 3, bytes_of("data"));
  const TrafficMeter& meter = market.infra().traffic;
  EXPECT_GT(meter.bytes_sent(Role::JobOwner), 0u);
  EXPECT_GT(meter.bytes_received(Role::Participant), 0u);
  EXPECT_GT(meter.total_bytes(), 1000u);
}

TEST(PpmsDecTest, DepositsAreTimeStaggered) {
  PpmsDecMarket market = make_market(11);
  market.run_round("jo", "sp", "job", 7, bytes_of("data"));
  const auto aid = *market.infra().bank.find_account("sp");
  const auto entries = market.infra().bank.statement(aid);
  ASSERT_GE(entries.size(), 2u);
  // Not all deposits landed at the same logical tick.
  bool staggered = false;
  for (std::size_t i = 1; i < entries.size(); ++i) {
    if (entries[i].time != entries[0].time) staggered = true;
  }
  EXPECT_TRUE(staggered);
}

TEST(PpmsDecTest, RejectsOutOfRangePayment) {
  PpmsDecMarket market = make_market(12);
  EXPECT_EQ(market_errc([&] { market.register_job("jo", "job", 0); }),
            MarketErrc::kPaymentOutOfRange);
  EXPECT_EQ(market_errc([&] { market.register_job("jo", "job", 9); }),
            MarketErrc::kPaymentOutOfRange);
}

TEST(PpmsDecTest, SameOwnerTwoJobsOneAccountTwoPseudonyms) {
  PpmsDecMarket market = make_market(30);
  JobOwnerSession job1 = market.register_job("acme", "job-a", 2);
  JobOwnerSession job2 = market.register_job("acme", "job-b", 3);
  // One bank account (the one-account rule)...
  EXPECT_EQ(job1.account.aid, job2.account.aid);
  // ...but unlinkable pseudonyms on the bulletin board.
  EXPECT_NE(market.infra().bulletin.get(job1.job_id)->owner_pseudonym,
            market.infra().bulletin.get(job2.job_id)->owner_pseudonym);
}

TEST(PpmsDecTest, OneWalletPaysTwoParticipantsSequentially) {
  // The withdrawn 2^L coin funds several payments; the buddy allocator
  // hands out disjoint subtrees and both SPs settle fully.
  PpmsDecMarket market = make_market(31);
  JobOwnerSession jo = market.register_job("jo", "job", 3);
  market.withdraw(jo);
  for (const char* sp_name : {"sp-a", "sp-b"}) {
    ParticipantSession sp = market.register_labor(sp_name, jo);
    market.submit_payment(jo, sp);
    market.submit_data(sp, bytes_of("d"));
    market.deliver_payment(sp);
    EXPECT_EQ(market.open_payment(sp).value, 3u);
    market.deposit_coins(sp);
  }
  market.settle();
  EXPECT_EQ(market.infra().bank.balance(
                *market.infra().bank.find_account("sp-a")), 3);
  EXPECT_EQ(market.infra().bank.balance(
                *market.infra().bank.find_account("sp-b")), 3);
  // 8 - 3 - 3 = 2 units remain in the wallet.
  EXPECT_EQ(jo.wallet->balance(), 2u);
}

TEST(PpmsDecTest, ExhaustedWalletThrowsOnNextPayment) {
  PpmsDecMarket market = make_market(32);
  JobOwnerSession jo = market.register_job("jo", "job", 5);
  market.withdraw(jo);
  ParticipantSession sp1 = market.register_labor("s1", jo);
  market.submit_payment(jo, sp1);  // consumes 5 of 8
  ParticipantSession sp2 = market.register_labor("s2", jo);
  EXPECT_EQ(market_errc([&] { market.submit_payment(jo, sp2); }),
            MarketErrc::kWalletExhausted);
  // A fresh withdrawal recovers.
  market.withdraw(jo);
  EXPECT_NO_THROW(market.submit_payment(jo, sp2));
}

TEST(PpmsDecTest, RootHidingModeFullRound) {
  PpmsDecConfig config;
  config.rsa_bits = 1024;
  config.strategy = CashBreakStrategy::kEpcba;
  config.hide_roots = true;
  PpmsDecMarket market(fast_dec_params(40), config, 41);
  const auto check = market.run_round("jo", "sp", "job", 5,
                                      bytes_of("data"));
  EXPECT_TRUE(check.signature_ok);
  EXPECT_EQ(check.value, 5u);
  const auto aid = *market.infra().bank.find_account("sp");
  EXPECT_EQ(market.infra().bank.balance(aid), 5);
}

TEST(PpmsDecTest, RootHidingCoinsOmitRootSerial) {
  PpmsDecConfig config;
  config.rsa_bits = 1024;
  config.hide_roots = true;
  PpmsDecMarket market(fast_dec_params(42), config, 43);
  JobOwnerSession jo = market.register_job("jo", "job", 5);
  market.withdraw(jo);
  ParticipantSession sp = market.register_labor("sp", jo);
  market.submit_payment(jo, sp);
  market.submit_data(sp, bytes_of("r"));
  market.deliver_payment(sp);
  const auto check = market.open_payment(sp);
  EXPECT_EQ(check.value, 5u);
  // w=5 with EPCBA = {4,1}? Algorithm 3: popcount(5)=2 <= popcount(4)=1?
  // No: 2 > 1, so 5's own bits {1,4} + fake. Both nodes have depth >= 1:
  // all coins are hiding coins, none carries a root serial.
  EXPECT_TRUE(sp.coins.empty());
  EXPECT_FALSE(sp.hiding_coins.empty());
  for (const RootHidingSpend& coin : sp.hiding_coins) {
    EXPECT_GE(coin.node.depth, 1u);
    EXPECT_EQ(coin.path_serials.size(), coin.node.depth);
  }
  market.deposit_coins(sp);
  market.settle();
  EXPECT_EQ(market.infra().bank.balance(
                *market.infra().bank.find_account("sp")), 5);
}

TEST(PpmsDecTest, RootHidingWholeCoinFallsBackToRegularSpend) {
  PpmsDecConfig config;
  config.rsa_bits = 1024;
  config.strategy = CashBreakStrategy::kNone;  // single coin of value w
  config.hide_roots = true;
  PpmsDecMarket market(fast_dec_params(44), config, 45);
  JobOwnerSession jo = market.register_job("jo", "job", 8);  // = 2^L
  market.withdraw(jo);
  ParticipantSession sp = market.register_labor("sp", jo);
  market.submit_payment(jo, sp);
  market.submit_data(sp, bytes_of("r"));
  market.deliver_payment(sp);
  const auto check = market.open_payment(sp);
  EXPECT_EQ(check.value, 8u);
  // The depth-0 node cannot hide its own serial: regular spend.
  ASSERT_EQ(sp.coins.size(), 1u);
  EXPECT_EQ(sp.coins[0].node.depth, 0u);
  EXPECT_TRUE(sp.hiding_coins.empty());
}

TEST(PpmsDecTest, OpCountersPopulateTableOneRows) {
  PpmsDecMarket market = make_market(13);
  reset_op_counters();
  set_op_counting(true);
  market.run_round("jo", "sp", "job", 5, bytes_of("data"));
  set_op_counting(false);
  const OpCountSnapshot snap = op_counters();
  // Every role did cryptographic work.
  EXPECT_GT(snap.get(Role::JobOwner, OpKind::Enc), 0u);
  EXPECT_GT(snap.get(Role::JobOwner, OpKind::Zkp), 0u);
  EXPECT_GT(snap.get(Role::Participant, OpKind::Dec), 0u);
  EXPECT_GT(snap.get(Role::Admin, OpKind::Zkp), 0u);
  reset_op_counters();
}

}  // namespace
}  // namespace ppms
