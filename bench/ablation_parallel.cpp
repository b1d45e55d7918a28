// Ablation A3 — parallel deposit throughput at the bank.
//
// The market administrator is the serialization point of the whole
// market: every coin every SP earns ends up in DecBank::deposit. This
// sweep drives a batch of pre-built spends through one shared bank from
// 1..8 worker threads (ThreadPool), exercising the double-spend database's
// internal locking. Spend verification (pairings) dominates and runs
// outside the lock, so throughput should scale until cores run out — on a
// single-core host the interest is correctness under contention and the
// flat profile.
#include <benchmark/benchmark.h>

#include <atomic>

#include "core/params.h"
#include "util/thread_pool.h"

namespace {

using namespace ppms;

struct Batch {
  DecParams params;
  std::unique_ptr<DecBank> bank;
  std::vector<SpendBundle> spends;
};

Batch& shared_batch() {
  static Batch batch = [] {
    SecureRandom rng(31337);
    Batch b;
    b.params = dec_setup(rng, 3, ChainSource::kTable, 128);
    b.bank = std::make_unique<DecBank>(b.params, rng);
    // 32 wallets, each contributing its 8 leaves: 256 unit spends.
    for (int w = 0; w < 32; ++w) {
      DecWallet wallet(b.params, rng);
      const Bytes ctx = bytes_of("a3");
      const auto cert = b.bank->withdraw(
          wallet.commitment(), wallet.prove_commitment(rng, ctx), ctx, rng);
      wallet.set_certificate(b.bank->public_key(), *cert);
      for (std::uint64_t leaf = 0; leaf < 8; ++leaf) {
        b.spends.push_back(wallet.spend(NodeIndex{3, leaf},
                                        b.bank->public_key(), rng, {}));
      }
    }
    return b;
  }();
  return batch;
}

void BM_ParallelDepositVerify(benchmark::State& state) {
  Batch& batch = shared_batch();
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    // Fresh bank per iteration so every deposit is first-seen; the shared
    // spends stay valid because verification only needs the public key —
    // but a fresh bank has a fresh key, so verify against the original
    // bank and only exercise the DB path via verify_spend + a local set.
    ThreadPool pool(threads);
    std::atomic<int> accepted{0};
    std::vector<std::future<void>> futures;
    futures.reserve(batch.spends.size());
    for (const SpendBundle& spend : batch.spends) {
      futures.push_back(pool.submit([&batch, &accepted, &spend] {
        if (verify_spend(batch.params, batch.bank->public_key(), spend)) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }));
    }
    for (auto& f : futures) f.get();
    if (accepted.load() != static_cast<int>(batch.spends.size())) {
      state.SkipWithError("verification failures under concurrency");
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.spends.size()));
}
BENCHMARK(BM_ParallelDepositVerify)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Deposit path with the double-spend DB lock in the loop: one bank, all
// 256 distinct coins, split across threads.
void BM_ParallelDepositCommit(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  SecureRandom seed_rng(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    // Fresh bank + freshly certified wallets per iteration (unmeasured).
    SecureRandom rng(seed_rng.next_u64());
    DecParams params = shared_batch().params;
    DecBank bank(params, rng);
    std::vector<DepositSpend> spends;
    for (int w = 0; w < 8; ++w) {
      DecWallet wallet(params, rng);
      const Bytes ctx = bytes_of("a3");
      const auto cert = bank.withdraw(
          wallet.commitment(), wallet.prove_commitment(rng, ctx), ctx, rng);
      wallet.set_certificate(bank.public_key(), *cert);
      for (std::uint64_t leaf = 0; leaf < 8; ++leaf) {
        spends.emplace_back(
            wallet.spend(NodeIndex{3, leaf}, bank.public_key(), rng, {}));
      }
    }
    state.ResumeTiming();

    ThreadPool pool(threads);
    std::atomic<int> accepted{0};
    std::vector<std::future<void>> futures;
    for (const DepositSpend& spend : spends) {
      futures.push_back(pool.submit([&bank, &accepted, &spend] {
        if (bank.deposit(spend).accepted()) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }));
    }
    for (auto& f : futures) f.get();
    if (accepted.load() != static_cast<int>(spends.size())) {
      state.SkipWithError("valid deposit rejected under concurrency");
    }
  }
}
BENCHMARK(BM_ParallelDepositCommit)
    ->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
