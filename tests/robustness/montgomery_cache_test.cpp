// Concurrency regression tests for the per-modulus Montgomery context
// cache (fp_ctx): many ThreadPool workers hammering modexp with a mix of
// moduli must (a) never corrupt the cache and (b) always produce the same
// values as the uncached reference ladder.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <vector>

#include "bigint/limbs.h"
#include "bigint/modarith.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ppms {
namespace {

TEST(MontgomeryCacheConcurrency, MixedModuliMatchUncachedReference) {
  fp_ctx_cache_clear();
  SecureRandom rng(300);
  struct Case {
    Bigint base, exp, m, expected;
  };
  std::vector<Case> cases;
  for (int i = 0; i < 6; ++i) {
    Bigint m = Bigint::random_bits(rng, 256);
    if (m.is_even()) m += Bigint(1);
    const Bigint base = Bigint::random_bits(rng, 256);
    const Bigint exp = Bigint::random_bits(rng, 128);
    cases.push_back({base, exp, m, modexp_binary(base, exp, m)});
  }

  std::atomic<int> mismatches{0};
  {
    ThreadPool pool(8);
    std::vector<std::future<void>> futures;
    for (int round = 0; round < 40; ++round) {
      for (const auto& c : cases) {
        futures.push_back(pool.submit([&c, &mismatches] {
          // Facade path (cache lookup under shared lock every call).
          if (modexp(c.base, c.exp, c.m) != c.expected) {
            mismatches.fetch_add(1);
          }
          // Explicit-context path (shared_ptr handed across threads).
          const auto ctx = fp_ctx(c.m);
          if (modexp(c.base, c.exp, *ctx) != c.expected) {
            mismatches.fetch_add(1);
          }
        }));
      }
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(fp_ctx_cache_size(), 1u);
  fp_ctx_cache_clear();
}

TEST(MontgomeryCacheConcurrency, EvictionUnderContention) {
  // More distinct moduli than the cache holds, from many threads at once:
  // results must stay correct while the cache churns through evictions.
  fp_ctx_cache_clear();
  std::atomic<int> mismatches{0};
  {
    ThreadPool pool(8);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 256; ++i) {
      futures.push_back(pool.submit([i, &mismatches] {
        const Bigint m(1000003 + 2 * i);
        const Bigint base(12345 + i);
        const Bigint exp(1 << 20);
        if (modexp(base, exp, m) != modexp_binary(base, exp, m)) {
          mismatches.fetch_add(1);
        }
      }));
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(fp_ctx_cache_size(), 64u);
  fp_ctx_cache_clear();
}

TEST(ThreadPoolShutdown, DrainsQueuedTasksOnDestruction) {
  // The documented contract: the destructor runs every already-queued task
  // before joining, even fire-and-forget ones whose futures were dropped.
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&done] {
        volatile int sink = 0;
        for (int j = 0; j < 50000; ++j) sink = sink + j;
        done.fetch_add(1);
      });
    }
    // Destructor fires here with most of the queue still pending.
  }
  EXPECT_EQ(done.load(), 64);
}

}  // namespace
}  // namespace ppms
