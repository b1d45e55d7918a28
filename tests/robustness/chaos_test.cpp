// Chaos suite: full protocol rounds over the fault-injected transport
// (market/faults.h). Sweeps fault rates up to 20% and asserts the market
// invariants the reliable layer must preserve end to end:
//  * every round completes via retries (no hangs, no spurious failures);
//  * settlement is exact — retransmitted, duplicated and redelivered
//    deposits never double-credit (idempotency keys + the double-spend
//    store);
//  * the final ledger matches a lossless twin run byte for byte in
//    amounts (entry times legitimately differ under delivery delays);
//  * two faulty runs under the same seeds are fully identical, down to
//    the ledger timestamps — the whole fault schedule is deterministic.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/params.h"
#include "support/market_error_assert.h"

namespace ppms {
namespace {

FaultPlan chaos_plan(double rate, std::uint64_t seed) {
  FaultPlan plan;
  plan.drop = rate;
  plan.duplicate = rate;
  plan.reorder = rate;
  plan.corrupt = rate / 2;
  plan.delay = rate;
  plan.seed = seed;
  return plan;
}

RetryPolicy chaos_retry() {
  // Generous attempt budget: at a 20% drop + 10% corrupt rate a four-leg
  // call succeeds per attempt with probability ~0.24, so 32 attempts push
  // the per-call failure odds below 1e-3 — and the fixed seeds make the
  // outcome reproducible regardless.
  RetryPolicy policy;
  policy.max_attempts = 32;
  return policy;
}

/// Balances by identity, queried through the public bank API.
std::map<std::string, std::int64_t> balances_of(
    MarketInfrastructure& infra, const std::vector<std::string>& who) {
  std::map<std::string, std::int64_t> out;
  for (const std::string& identity : who) {
    const auto aid = infra.bank.find_account(identity);
    if (aid.has_value()) out[identity] = infra.bank.balance(*aid);
  }
  return out;
}

/// Full statements (time + amount per entry) by identity.
std::map<std::string, std::vector<std::pair<std::uint64_t, std::int64_t>>>
statements_of(MarketInfrastructure& infra,
              const std::vector<std::string>& who) {
  std::map<std::string, std::vector<std::pair<std::uint64_t, std::int64_t>>>
      out;
  for (const std::string& identity : who) {
    const auto aid = infra.bank.find_account(identity);
    if (!aid.has_value()) continue;
    for (const auto& entry : infra.bank.statement(*aid)) {
      out[identity].emplace_back(entry.time, entry.amount);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// PPMSdec under chaos.

struct DecRunResult {
  std::map<std::string, std::int64_t> balances;
  std::map<std::string, std::vector<std::pair<std::uint64_t, std::int64_t>>>
      statements;
  std::uint64_t messages = 0;
};

DecRunResult run_dec_rounds(double rate, std::uint64_t fault_seed,
                            int rounds, bool hide_roots = false) {
  PpmsDecConfig config;
  config.rsa_bits = 1024;
  config.hide_roots = hide_roots;
  if (rate > 0) {
    config.faults = chaos_plan(rate, fault_seed);
    config.retry = chaos_retry();
  }
  PpmsDecMarket market(fast_dec_params(600), config, 601);
  std::vector<std::string> who;
  for (int i = 0; i < rounds; ++i) {
    const std::string jo = "jo-" + std::to_string(i);
    const std::string sp = "sp-" + std::to_string(i);
    const std::uint64_t payment = 3 + static_cast<std::uint64_t>(i % 3);
    const auto check =
        market.run_round(jo, sp, "chaos-job", payment, bytes_of("report"));
    EXPECT_TRUE(check.signature_ok);
    EXPECT_EQ(check.value, payment);
    who.push_back(jo);
    who.push_back(sp);
  }
  DecRunResult result;
  result.balances = balances_of(market.infra(), who);
  result.statements = statements_of(market.infra(), who);
  result.messages = market.infra().traffic.message_count();
  return result;
}

TEST(ChaosDecTest, RoundsCompleteAndLedgerMatchesLosslessTwin) {
  // With hide_roots, every coin below the root is a root-hiding spend, so
  // both spend kinds travel the faulty transport's per-coin deposit.
  constexpr int kRounds = 3;
  for (const bool hide_roots : {false, true}) {
    SCOPED_TRACE(hide_roots ? "hide_roots" : "regular");
    const DecRunResult lossless = run_dec_rounds(0.0, 0, kRounds, hide_roots);
    for (const double rate : {0.05, 0.2}) {
      SCOPED_TRACE(rate);
      const DecRunResult faulty =
          run_dec_rounds(rate, 701, kRounds, hide_roots);
      // Exact settlement: every SP holds exactly its payment, every JO
      // paid exactly the 2^L withdrawal — a single double-credited retry
      // would break either side of this.
      for (int i = 0; i < kRounds; ++i) {
        const std::uint64_t payment = 3 + static_cast<std::uint64_t>(i % 3);
        EXPECT_EQ(faulty.balances.at("sp-" + std::to_string(i)),
                  static_cast<std::int64_t>(payment));
        EXPECT_EQ(faulty.balances.at("jo-" + std::to_string(i)),
                  static_cast<std::int64_t>(
                      PpmsDecConfig{}.initial_balance) - 8);
      }
      // The faulty ledger lands on the same balances as the lossless twin.
      EXPECT_EQ(faulty.balances, lossless.balances);
      // Retries are real traffic: the faulty run moved more messages.
      EXPECT_GT(faulty.messages, lossless.messages);
    }
  }
}

TEST(ChaosDecTest, SameSeedsReproduceTheRunExactly) {
  const DecRunResult a = run_dec_rounds(0.2, 443, 2);
  const DecRunResult b = run_dec_rounds(0.2, 443, 2);
  EXPECT_EQ(a.balances, b.balances);
  EXPECT_EQ(a.statements, b.statements);  // timestamps included
  EXPECT_EQ(a.messages, b.messages);
}

// ---------------------------------------------------------------------------
// PPMSpbs under chaos.

struct PbsRunResult {
  std::map<std::string, std::int64_t> balances;
  std::map<std::string, std::vector<std::pair<std::uint64_t, std::int64_t>>>
      statements;
  std::size_t used_serials = 0;
  std::uint64_t messages = 0;
};

PbsRunResult run_pbs_rounds(double rate, std::uint64_t fault_seed,
                            int rounds) {
  PpmsPbsConfig config;
  config.rsa_bits = 1024;
  if (rate > 0) {
    config.faults = chaos_plan(rate, fault_seed);
    config.retry = chaos_retry();
  }
  PpmsPbsMarket market(config, 811);
  PbsOwnerSession jo = market.enroll_owner("lab");
  std::vector<std::string> who{"lab"};
  for (int i = 0; i < rounds; ++i) {
    const std::string worker = "w-" + std::to_string(i);
    PbsParticipantSession sp = market.enroll_participant(worker);
    EXPECT_TRUE(market.run_round(jo, sp, bytes_of("sensing-data")));
    who.push_back(worker);
  }
  PbsRunResult result;
  result.balances = balances_of(market.infra(), who);
  result.statements = statements_of(market.infra(), who);
  result.used_serials = market.used_serials();
  result.messages = market.infra().traffic.message_count();
  return result;
}

TEST(ChaosPbsTest, RoundsCompleteAndLedgerMatchesLosslessTwin) {
  constexpr int kRounds = 5;
  const PbsRunResult lossless = run_pbs_rounds(0.0, 0, kRounds);
  for (const double rate : {0.05, 0.1, 0.2}) {
    SCOPED_TRACE(rate);
    const PbsRunResult faulty = run_pbs_rounds(rate, 911, kRounds);
    // Unitary market: exactly one unit per worker, exactly kRounds units
    // out of the lab, one consumed serial per coin. Any duplicated
    // deposit that slipped past the idempotency key or the serial store
    // would show up here immediately.
    for (int i = 0; i < kRounds; ++i) {
      EXPECT_EQ(faulty.balances.at("w-" + std::to_string(i)), 1);
    }
    EXPECT_EQ(faulty.balances.at("lab"),
              static_cast<std::int64_t>(PpmsPbsConfig{}.initial_balance) -
                  kRounds);
    EXPECT_EQ(faulty.used_serials, static_cast<std::size_t>(kRounds));
    EXPECT_EQ(faulty.balances, lossless.balances);
    EXPECT_GT(faulty.messages, lossless.messages);
  }
}

TEST(ChaosPbsTest, SameSeedsReproduceTheRunExactly) {
  const PbsRunResult a = run_pbs_rounds(0.15, 517, 3);
  const PbsRunResult b = run_pbs_rounds(0.15, 517, 3);
  EXPECT_EQ(a.balances, b.balances);
  EXPECT_EQ(a.statements, b.statements);
  EXPECT_EQ(a.used_serials, b.used_serials);
  EXPECT_EQ(a.messages, b.messages);
}

TEST(ChaosPbsTest, FaultyMarketRejectsParallelSettlement) {
  // The retry loops pump the scheduler re-entrantly; the parallel drain
  // cannot support that, so the combination is refused up front.
  PpmsPbsConfig config;
  config.rsa_bits = 1024;
  config.faults = chaos_plan(0.1, 1);
  config.retry = chaos_retry();
  config.settle_threads = 2;
  EXPECT_EQ(market_errc([&] { PpmsPbsMarket market(config, 3); }),
            MarketErrc::kInvalidSchedule);
}

TEST(ChaosDecTest, FaultyMarketRejectsParallelSettlement) {
  PpmsDecConfig config;
  config.rsa_bits = 1024;
  config.faults = chaos_plan(0.1, 1);
  config.retry = chaos_retry();
  config.settle_threads = 2;
  EXPECT_EQ(market_errc([&] {
              PpmsDecMarket market(fast_dec_params(600), config, 601);
            }),
            MarketErrc::kInvalidSchedule);
}

}  // namespace
}  // namespace ppms
