// Ablation A13 — what epoch netting buys the settlement path.
//
// In the staged server (server/server.h) the verify stage is identical in
// both settlement modes: arriving envelopes are batch-pairing-verified
// (verify_cert_equation_batch) whether the settle stage then credits per
// coin or accrues into an epoch window. Measured at these parameters the
// batch cert product is within ~10% of per-coin cert checks anyway — the
// Fiat–Shamir transcript of every spend's equality proof pins its own
// statement pairings, so the pairing bill is per-coin in either mode (see
// EXPERIMENTS.md A13 for the numbers). What the MODE changes is the
// settle stage, and that is what this ablation isolates:
//
//  * BM_PerCoinDeposit   — each verified coin settles as its own WAL
//    transaction (serial spend marks + a VBank credit) followed by a
//    sync: the deposit reply acks a committed payment, so the txn must
//    be durable before the reply leaves. N coins = N ledger mutations
//    and N sync points.
//  * BM_EpochNettedClose — each verified coin settles as serial spend
//    marks + an epoch accrual (same txn shape, no per-coin sync: the
//    reply only acks accrual, payment is promised at close), then ONE
//    close commits a single net credit per account + the kEpochMark
//    under one synced transaction. N coins = 1 ledger mutation and 1
//    sync point.
//
// Both run the same WAL policy (kBatch, the loadgen default) on the same
// filesystem; verification runs once off the clock (stateless, keys are
// shared by every per-iteration bank). The acceptance line: netted close
// >= 2x faster than per-coin at N >= 64. Committed numbers:
// BENCH_ablation_epoch.json.
//
// Before any benchmark runs, main() performs a durability self-check: a
// netted window written through a DurableLedger must recover into fresh
// stores bit-for-bit (ledger_state_digest), with the pending window
// empty and the epoch counter restored — the same invariant the
// tier1-scenarios durable cells pin, re-verified here so the committed
// JSON can never describe a configuration whose WAL does not replay.
#include <benchmark/benchmark.h>

#include <sys/stat.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/params.h"
#include "dec/wallet.h"
#include "market/epoch.h"
#include "market/vbank.h"
#include "storage/idempotency.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"

namespace {

using namespace ppms;

std::string bench_dir() {
  static const std::string dir = [] {
    const std::string d = "/tmp/ppms_epoch_bench";
    ::mkdir(d.c_str(), 0755);
    return d;
  }();
  return dir;
}

storage::FileJournalOptions journal_options() {
  storage::FileJournalOptions opt;
  opt.sync = storage::SyncPolicy::kBatch;
  return opt;
}

/// Pre-generated spends: 16 wallets × 8 leaves = 128 unit coins, enough
/// for the largest window. Built once; every iteration settles them into
/// a FRESH bank so nothing double-spends.
struct SpendPool {
  DecParams params;
  std::vector<SpendBundle> spends;
};

const SpendPool& pool() {
  static const SpendPool p = [] {
    SpendPool out{fast_dec_params(8001), {}};
    // Dedicated issuer rng: fresh_bank() replays seed 8100 to rebuild a
    // bank with IDENTICAL keys (keys are config, not serial state), so
    // the pool's coins verify against every per-iteration bank.
    SecureRandom issuer_rng(8100);
    DecBank issuer(out.params, issuer_rng);
    SecureRandom rng(8002);
    const Bytes ctx = bytes_of("epoch-bench");
    for (int w = 0; w < 16; ++w) {
      DecWallet wallet(out.params, rng);
      const auto cert = issuer.withdraw(
          wallet.commitment(), wallet.prove_commitment(rng, ctx), ctx, rng);
      wallet.set_certificate(issuer.public_key(), *cert);
      for (std::uint64_t leaf = 0; leaf < 8; ++leaf) {
        out.spends.push_back(
            wallet.spend(NodeIndex{3, leaf}, issuer.public_key(), rng, ctx));
      }
    }
    return out;
  }();
  return p;
}

/// Same seed every time: issuer keys are fixture, serial state is what
/// resets per iteration.
DecBank fresh_bank() {
  SecureRandom rng(8100);
  return DecBank(pool().params, rng);
}

/// Verify the first `coins` pool spends once, off the clock. Stateless
/// (verification touches no serial store) and key-identical across every
/// fresh_bank(), so one pass stands in for the shared verify stage of
/// both settlement modes. Returns false if any spend fails.
bool preverify(std::size_t coins) {
  static std::size_t verified_upto = 0;
  if (coins <= verified_upto) return true;
  const SpendPool& p = pool();
  DecBank bank = fresh_bank();
  const std::vector<DepositSpend> window(
      p.spends.begin(),
      p.spends.begin() + static_cast<std::ptrdiff_t>(coins));
  std::vector<const DepositSpend*> members;
  for (const DepositSpend& spend : window) members.push_back(&spend);
  const std::vector<bool> ok = bank.verify_batch(members);
  for (bool b : ok) {
    if (!b) return false;
  }
  verified_upto = coins;
  return true;
}

/// Fresh bank + WAL + ledger stores for one iteration, off the clock.
struct Fixture {
  DecBank bank;
  VBank vbank;
  EpochAccumulator epochs;
  std::unique_ptr<storage::FileJournal> journal;
  std::string aid;

  Fixture() : bank(fresh_bank()) {
    const std::string path = bench_dir() + "/iter.log";
    std::remove(path.c_str());
    journal =
        std::make_unique<storage::FileJournal>(path, journal_options());
    bank.attach_journal(journal.get());
    vbank.attach_journal(journal.get());
    epochs.attach_journal(journal.get());
    aid = vbank.open_account("bench-sp");
  }
};

void BM_PerCoinDeposit(benchmark::State& state) {
  const std::size_t coins = static_cast<std::size_t>(state.range(0));
  const SpendPool& p = pool();
  if (!preverify(coins)) {
    state.SkipWithError("preverify rejected a pool spend");
    return;
  }
  for (auto _ : state) {
    state.PauseTiming();
    Fixture fx;
    state.ResumeTiming();
    for (std::size_t i = 0; i < coins; ++i) {
      {
        storage::JournalScope txn(fx.journal.get());
        const SettleOutcome out = fx.bank.settle_verified(p.spends[i]);
        if (!out.accepted()) {
          state.SkipWithError("settle rejected");
          return;
        }
        fx.vbank.credit(fx.aid, out.value, i);
      }
      // The deposit reply acks a committed payment: durable before ack.
      fx.journal->sync();
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(coins));
  state.counters["coins_per_account"] = static_cast<double>(coins);
}

void BM_EpochNettedClose(benchmark::State& state) {
  const std::size_t coins = static_cast<std::size_t>(state.range(0));
  const SpendPool& p = pool();
  if (!preverify(coins)) {
    state.SkipWithError("preverify rejected a pool spend");
    return;
  }
  for (auto _ : state) {
    state.PauseTiming();
    Fixture fx;
    state.ResumeTiming();
    for (std::size_t i = 0; i < coins; ++i) {
      // Same txn shape as per-coin settle, but the reply only acks
      // accrual — no per-coin durability point.
      storage::JournalScope txn(fx.journal.get());
      const SettleOutcome out = fx.bank.settle_verified(p.spends[i]);
      if (!out.accepted()) {
        state.SkipWithError("settle rejected");
        return;
      }
      fx.epochs.accrue(fx.aid, out.value, i);
    }
    // One net credit + kEpochMark, one durability point for the window.
    const auto close = fx.epochs.close(fx.vbank, coins);
    fx.journal->sync();
    benchmark::DoNotOptimize(close.value);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(coins));
  state.counters["coins_per_account"] = static_cast<double>(coins);
}

/// Durability self-check (see header comment). Returns true when a
/// netted window recovers bit-for-bit.
bool recovery_self_check() {
  const std::string dir = bench_dir() + "/selfcheck";
  ::mkdir(dir.c_str(), 0755);
  std::remove((dir + "/wal.log").c_str());
  std::remove((dir + "/snapshot.bin").c_str());
  const SpendPool& p = pool();

  Bytes live;
  std::uint64_t live_epoch = 0;
  {
    storage::DurableLedgerOptions dopt;
    dopt.journal = journal_options();
    storage::DurableLedger ledger(dir, dopt);
    DecBank bank = fresh_bank();
    VBank vbank;
    IdempotencyStore idem;
    EpochAccumulator epochs;
    ledger.attach(vbank, bank, idem);
    epochs.attach_journal(&ledger.journal());
    const std::string aid = vbank.open_account("bench-sp");
    for (std::size_t i = 0; i < 16; ++i) {
      storage::JournalScope txn(&ledger.journal());
      const SettleOutcome out = bank.deposit(p.spends[i]);
      if (!out.accepted()) return false;
      epochs.accrue(aid, out.value, i);
    }
    epochs.close(vbank, 16);
    ledger.journal().sync();
    live = storage::ledger_state_digest(vbank, bank, idem);
    live_epoch = epochs.last_closed();
  }

  VBank rec_vbank;
  DecBank rec_bank = fresh_bank();
  IdempotencyStore rec_idem;
  EpochAccumulator rec_epochs;
  storage::DurableLedger reopened(dir);
  const auto stats =
      reopened.recover(rec_vbank, rec_bank, rec_idem, &rec_epochs);
  return storage::ledger_state_digest(rec_vbank, rec_bank, rec_idem) ==
             live &&
         rec_epochs.pending_total() == 0 && stats.last_epoch == live_epoch;
}

}  // namespace

BENCHMARK(BM_PerCoinDeposit)
    ->Arg(16)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EpochNettedClose)
    ->Arg(16)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  if (!recovery_self_check()) {
    std::fprintf(stderr,
                 "ablation_epoch: WAL recovery self-check FAILED — "
                 "refusing to benchmark an unrecoverable configuration\n");
    return 1;
  }
  std::fprintf(stderr, "ablation_epoch: WAL recovery self-check ok\n");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
