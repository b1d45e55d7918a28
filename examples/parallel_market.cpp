// Parallel market: many sensing participants settle concurrently through
// one shared market administrator.
//
//   $ ./examples/parallel_market [workers] [wallets]
//
// A deployed MA serves thousands of concurrent sessions; this example
// drives the deposit path — the MA's serialization point — from a worker
// pool. Each of `wallets` participants withdraws a coin and deposits all
// 8 leaves; deposits from all participants interleave across `workers`
// threads against one DecBank (thread-safe double-spend database) and one
// VBank ledger. Afterwards the example asserts global conservation: every
// coin accepted exactly once, total credits == wallets * 2^L.
#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "core/params.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace ppms;

int main(int argc, char** argv) {
  const std::size_t workers = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 4;
  const std::size_t wallets = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 6;

  std::printf("== parallel settlement: %zu wallets x 8 leaves via %zu "
              "worker threads ==\n\n",
              wallets, workers);
  SecureRandom rng(99);
  const DecParams params = fast_dec_params(99);
  DecBank bank(params, rng);
  VBank ledger;

  // Phase 1 (sequential): withdrawals and spend preparation.
  Stopwatch prep;
  struct Job {
    std::string aid;
    DepositSpend spend;
  };
  std::vector<Job> jobs;
  for (std::size_t w = 0; w < wallets; ++w) {
    const std::string aid =
        ledger.open_account("participant-" + std::to_string(w));
    DecWallet wallet(params, rng);
    const Bytes ctx = bytes_of("parallel");
    const auto cert = bank.withdraw(
        wallet.commitment(), wallet.prove_commitment(rng, ctx), ctx, rng);
    wallet.set_certificate(bank.public_key(), *cert);
    for (std::uint64_t leaf = 0; leaf < 8; ++leaf) {
      jobs.push_back(
          {aid, wallet.spend(NodeIndex{3, leaf}, bank.public_key(), rng,
                             {})});
    }
  }
  std::printf("prepared %zu spends in %.0f ms\n", jobs.size(),
              prep.elapsed_ms());

  // Phase 2 (parallel): deposits race through the shared bank. One
  // duplicate per wallet is injected to exercise rejection under
  // contention.
  std::vector<Job> attempts = jobs;
  for (std::size_t w = 0; w < wallets; ++w) {
    attempts.push_back(jobs[w * 8]);  // replay of each wallet's first leaf
  }
  Stopwatch settle;
  std::atomic<std::size_t> accepted{0}, rejected{0};
  {
    ThreadPool pool(workers);
    std::vector<std::future<void>> futures;
    futures.reserve(attempts.size());
    for (const Job& job : attempts) {
      futures.push_back(pool.submit([&bank, &ledger, &accepted, &rejected,
                                     &job] {
        const auto result = bank.deposit(job.spend);
        if (result.accepted()) {
          ledger.credit(job.aid, result.value, 0);
          accepted.fetch_add(1);
        } else {
          rejected.fetch_add(1);
        }
      }));
    }
    for (auto& f : futures) f.get();
  }
  const double ms = settle.elapsed_ms();
  std::printf("settled %zu deposit attempts in %.0f ms (%.1f deposits/s)\n",
              attempts.size(), ms, 1000.0 * attempts.size() / ms);
  std::printf("accepted %zu, rejected %zu (the injected replays)\n\n",
              accepted.load(), rejected.load());

  // Conservation check.
  std::int64_t total = 0;
  for (std::size_t w = 0; w < wallets; ++w) {
    const auto aid = *ledger.find_account("participant-" + std::to_string(w));
    total += ledger.balance(aid);
  }
  const std::int64_t expected = static_cast<std::int64_t>(wallets) * 8;
  std::printf("ledger total %lld, expected %lld: %s\n",
              static_cast<long long>(total),
              static_cast<long long>(expected),
              total == expected ? "conserved" : "VIOLATION");
  return total == expected && rejected.load() == wallets ? 0 : 1;
}
