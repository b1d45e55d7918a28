// Differential fuzz harness for the SIMD lane-batched Montgomery kernels
// (bigint/simd.h): every compiled vector kernel against the scalar
// cios_mont_mul oracle on adversarial operands — modulus-boundary and
// out-of-domain values, aliased in/out pointers, ragged batch tails —
// plus the batch layers above (FpCtx::mul_batch / sqr_batch /
// FpLaneBatch), PairingPrecomp replay across dispatch levels, and a
// threaded dispatch-toggle hammer for the TSan leg. Any divergence is a hard
// failure: the lane kernels ship only because they are bit-identical to
// the scalar kernel for any in-width input.
#include "bigint/simd.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/limbs.h"
#include "bigint/simd_detail.h"
#include "pairing/pipeline.h"
#include "pairing/tate.h"

namespace ppms {
namespace {

using limb::Limb;

// A modulus of exactly n limbs: top bit set, odd. Extreme n0 values come
// from the low limb; the zoo below covers both random and saturated ones.
std::vector<Limb> random_modulus(std::size_t n, SecureRandom& rng) {
  std::vector<Limb> m(n);
  for (std::size_t i = 0; i < n; ++i) m[i] = rng.next_u64();
  m[n - 1] |= Limb{1} << 63;
  m[0] |= 1;
  return m;
}

// Operand zoo: carry-chain extremes plus values pinned to the modulus
// boundary (m-1, m, m+1, 2^{64n}-1) — the SIMD contract covers any
// in-width operand, not just reduced ones.
std::vector<std::vector<Limb>> operand_zoo(const std::vector<Limb>& m,
                                           SecureRandom& rng) {
  const std::size_t n = m.size();
  std::vector<std::vector<Limb>> ops;
  ops.emplace_back(n, Limb{0});
  ops.emplace_back(n, ~Limb{0});  // 2^{64n} - 1: out of domain
  std::vector<Limb> v(n, 0);
  v[0] = 1;
  ops.push_back(v);
  v.assign(n, 0);
  v[n - 1] = Limb{1} << 63;
  ops.push_back(v);
  v = m;
  ops.push_back(v);  // m itself: out of domain
  Limb borrow = 1;
  for (std::size_t i = 0; i < n; ++i) {
    const Limb nv = v[i] - borrow;
    borrow = v[i] < borrow ? 1 : 0;
    v[i] = nv;
  }
  ops.push_back(v);  // m - 1: largest reduced value
  v = m;
  Limb carry = 1;
  for (std::size_t i = 0; i < n && carry != 0; ++i) {
    v[i] += carry;
    carry = v[i] == 0 ? 1 : 0;
  }
  ops.push_back(v);  // m + 1: just out of domain
  for (int k = 0; k < 3; ++k) {
    v.resize(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = rng.next_u64();
    ops.push_back(v);
  }
  return ops;
}

using KernelFn = bool (*)(const simd::MontJob*, std::size_t, const Limb*,
                          Limb, std::size_t);

// Every vector kernel this build + CPU can actually run, by name.
std::vector<std::pair<const char*, KernelFn>> runnable_kernels() {
  std::vector<std::pair<const char*, KernelFn>> out;
#if defined(__x86_64__) || defined(__i386__)
  if (simd::detail::compiled_avx2() && __builtin_cpu_supports("avx2")) {
    out.emplace_back("avx2", &simd::detail::run_avx2);
  }
  if (simd::detail::compiled_avx512() &&
      __builtin_cpu_supports("avx512f")) {
    out.emplace_back("avx512", &simd::detail::run_avx512);
  }
  if (simd::detail::compiled_avx512ifma() &&
      __builtin_cpu_supports("avx512ifma")) {
    out.emplace_back("avx512ifma", &simd::detail::run_avx512ifma);
  }
#endif
  return out;
}

constexpr std::size_t kWidths[] = {2, 4, 8, 16};

// --- kernel-level differential fuzz ----------------------------------------

// All operand pairs from the zoo, one batch per kernel, against the scalar
// oracle. Covers modulus-boundary and out-of-domain operands at every
// lane-batched width.
TEST(SimdDiff, KernelsMatchScalarOnAdversarialOperands) {
  SecureRandom rng(9101);
  const auto kernels = runnable_kernels();
  for (const std::size_t n : kWidths) {
    const auto m = random_modulus(n, rng);
    const Limb n0 = limb::neg_inverse(m[0]);
    const auto zoo = operand_zoo(m, rng);
    // Build the full cross product as one ragged batch.
    std::vector<std::vector<Limb>> a, b;
    for (const auto& x : zoo) {
      for (const auto& y : zoo) {
        a.push_back(x);
        b.push_back(y);
      }
    }
    const std::size_t k = a.size();
    std::vector<std::vector<Limb>> want(k, std::vector<Limb>(n));
    for (std::size_t i = 0; i < k; ++i) {
      limb::cios_mont_mul(want[i].data(), a[i].data(), b[i].data(), m.data(),
                          n0, n);
    }
    for (const auto& [name, fn] : kernels) {
      std::vector<std::vector<Limb>> got(k, std::vector<Limb>(n));
      std::vector<simd::MontJob> jobs(k);
      for (std::size_t i = 0; i < k; ++i) {
        jobs[i] = simd::MontJob{got[i].data(), a[i].data(), b[i].data()};
      }
      ASSERT_TRUE(fn(jobs.data(), k, m.data(), n0, n))
          << name << " refused width " << n;
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_EQ(got[i], want[i]) << name << " n=" << n << " job " << i;
      }
    }
  }
}

// Ragged tails k = 1..K-1 and just past a lane group, straight into each
// kernel (the public entry point routes tiny batches to the scalar loop by
// cost policy, so the tail path is pinned here at the detail seam).
TEST(SimdDiff, RaggedTailsMatchScalar) {
  SecureRandom rng(9102);
  const auto kernels = runnable_kernels();
  for (const std::size_t n : kWidths) {
    const auto m = random_modulus(n, rng);
    const Limb n0 = limb::neg_inverse(m[0]);
    for (std::size_t k = 1; k <= 2 * 8 + 3; ++k) {
      std::vector<std::vector<Limb>> a(k, std::vector<Limb>(n)),
          b(k, std::vector<Limb>(n)), want(k, std::vector<Limb>(n));
      for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t w = 0; w < n; ++w) {
          a[i][w] = rng.next_u64();
          b[i][w] = rng.next_u64();
        }
        limb::cios_mont_mul(want[i].data(), a[i].data(), b[i].data(),
                            m.data(), n0, n);
      }
      for (const auto& [name, fn] : kernels) {
        std::vector<std::vector<Limb>> got(k, std::vector<Limb>(n));
        std::vector<simd::MontJob> jobs(k);
        for (std::size_t i = 0; i < k; ++i) {
          jobs[i] = simd::MontJob{got[i].data(), a[i].data(), b[i].data()};
        }
        ASSERT_TRUE(fn(jobs.data(), k, m.data(), n0, n));
        for (std::size_t i = 0; i < k; ++i) {
          EXPECT_EQ(got[i], want[i])
              << name << " n=" << n << " k=" << k << " job " << i;
        }
      }
    }
  }
}

// r aliasing the job's own a, own b, and a == b == r (in-place squaring).
TEST(SimdDiff, AliasedOutputsMatchScalar) {
  SecureRandom rng(9103);
  const auto kernels = runnable_kernels();
  for (const std::size_t n : kWidths) {
    const auto m = random_modulus(n, rng);
    const Limb n0 = limb::neg_inverse(m[0]);
    constexpr std::size_t k = 12;
    std::vector<std::vector<Limb>> a0(k, std::vector<Limb>(n)),
        b0(k, std::vector<Limb>(n)), want(k, std::vector<Limb>(n));
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t w = 0; w < n; ++w) {
        a0[i][w] = rng.next_u64();
        b0[i][w] = rng.next_u64();
      }
      // Jobs cycle through alias shapes; the oracle uses the same values.
      const Limb* bi = i % 3 == 2 ? a0[i].data() : b0[i].data();
      limb::cios_mont_mul(want[i].data(), a0[i].data(), bi, m.data(), n0, n);
    }
    for (const auto& [name, fn] : kernels) {
      auto a = a0;
      auto b = b0;
      std::vector<simd::MontJob> jobs(k);
      for (std::size_t i = 0; i < k; ++i) {
        switch (i % 3) {
          case 0:  // r aliases a
            jobs[i] = simd::MontJob{a[i].data(), a[i].data(), b[i].data()};
            break;
          case 1:  // r aliases b
            jobs[i] = simd::MontJob{b[i].data(), a[i].data(), b[i].data()};
            break;
          default:  // in-place squaring: r == a == b
            jobs[i] = simd::MontJob{a[i].data(), a[i].data(), a[i].data()};
        }
      }
      ASSERT_TRUE(fn(jobs.data(), k, m.data(), n0, n));
      for (std::size_t i = 0; i < k; ++i) {
        const auto& got = i % 3 == 1 ? b[i] : a[i];
        EXPECT_EQ(got, want[i]) << name << " n=" << n << " job " << i;
      }
    }
  }
}

// --- public entry points ----------------------------------------------------

// cios_mont_mul_xk executes every job at every level — including widths no
// kernel serves (n=3) and batches below the cost threshold — and the
// results never depend on the level.
TEST(SimdDiff, EntryPointAlwaysExecutesEveryJob) {
  SecureRandom rng(9104);
  for (const std::size_t n :
       {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
    const auto m = random_modulus(n, rng);
    const Limb n0 = limb::neg_inverse(m[0]);
    for (const std::size_t k : {std::size_t{1}, std::size_t{3},
                                std::size_t{7}, std::size_t{40}}) {
      std::vector<std::vector<Limb>> a(k, std::vector<Limb>(n)),
          b(k, std::vector<Limb>(n)), want(k, std::vector<Limb>(n));
      for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t w = 0; w < n; ++w) {
          a[i][w] = rng.next_u64();
          b[i][w] = rng.next_u64();
        }
        limb::cios_mont_mul(want[i].data(), a[i].data(), b[i].data(),
                            m.data(), n0, n);
      }
      for (const simd::Level lv :
           {simd::Level::kScalar, simd::detected()}) {
        simd::set_level(lv);
        std::vector<std::vector<Limb>> got(k, std::vector<Limb>(n));
        std::vector<simd::MontJob> jobs(k);
        for (std::size_t i = 0; i < k; ++i) {
          jobs[i] = simd::MontJob{got[i].data(), a[i].data(), b[i].data()};
        }
        simd::cios_mont_mul_xk(jobs.data(), k, m.data(), n0, n);
        for (std::size_t i = 0; i < k; ++i) {
          EXPECT_EQ(got[i], want[i])
              << simd::level_name(lv) << " n=" << n << " k=" << k;
        }
      }
      simd::set_level(simd::detected());
    }
  }
  simd::set_level(simd::detected());
}

TEST(SimdDiff, MontSqrBatchMatchesScalar) {
  SecureRandom rng(9105);
  const std::size_t n = 4;
  const auto m = random_modulus(n, rng);
  const Limb n0 = limb::neg_inverse(m[0]);
  constexpr std::size_t k = 21;
  std::vector<std::vector<Limb>> a(k, std::vector<Limb>(n)),
      got(k, std::vector<Limb>(n)), want(k, std::vector<Limb>(n));
  std::vector<Limb*> rp(k);
  std::vector<const Limb*> ap(k);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t w = 0; w < n; ++w) a[i][w] = rng.next_u64();
    limb::cios_mont_mul(want[i].data(), a[i].data(), a[i].data(), m.data(),
                        n0, n);
    rp[i] = got[i].data();
    ap[i] = a[i].data();
  }
  simd::mont_sqr_xk(rp.data(), ap.data(), k, m.data(), n0, n);
  for (std::size_t i = 0; i < k; ++i) EXPECT_EQ(got[i], want[i]);
}

// Regression for the unchecked-width stack smash: out-of-range n is
// rejected, not written.
TEST(SimdDiff, ScalarKernelRejectsOutOfRangeWidths) {
  Limb r[4] = {0}, a[4] = {1, 0, 0, 0}, m[4] = {13, 0, 0, 0};
  const Limb n0 = limb::neg_inverse(m[0]);
  EXPECT_THROW(limb::cios_mont_mul(r, a, a, m, n0, 0), std::invalid_argument);
  EXPECT_THROW(limb::cios_mont_mul(r, a, a, m, n0, limb::kMaxFpLimbs + 1),
               std::invalid_argument);
  EXPECT_THROW(limb::cios_mont_mul(r, a, a, m, n0, ~std::size_t{0} / 2),
               std::invalid_argument);
}

// --- FpCtx batch layer ------------------------------------------------------

TEST(SimdDiff, FpCtxBatchesMatchSequentialMul) {
  SecureRandom rng(9106);
  for (const std::size_t bits : {std::size_t{128}, std::size_t{512}}) {
    Bigint m =
        Bigint::random_bits(rng, bits - 1) + Bigint::two_pow(bits - 1);
    if (m.is_even()) m = m - Bigint(1);
    const auto F = fp_ctx(m);
    constexpr std::size_t k = 37;  // ragged vs every lane width
    std::vector<FpElem> a(k), b(k), got(k), want(k);
    for (std::size_t i = 0; i < k; ++i) {
      a[i] = F->to_mont(Bigint::random_below(rng, m));
      b[i] = F->to_mont(Bigint::random_below(rng, m));
      F->mul(want[i], a[i], b[i]);
    }
    std::vector<FpCtx::MulJob> jobs;
    for (std::size_t i = 0; i < k; ++i) {
      jobs.push_back(FpCtx::MulJob{&got[i], &a[i], &b[i]});
    }
    F->mul_batch(jobs.data(), jobs.size());
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_TRUE(F->equal(got[i], want[i])) << bits << "-bit job " << i;
    }
    // sqr_batch with in-place destinations (r[i] == a[i]).
    std::vector<FpElem> s = a;
    std::vector<FpElem*> rp(k);
    std::vector<const FpElem*> ap(k);
    for (std::size_t i = 0; i < k; ++i) {
      F->mul(want[i], a[i], a[i]);
      rp[i] = &s[i];
      ap[i] = &s[i];
    }
    F->sqr_batch(rp.data(), ap.data(), k);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_TRUE(F->equal(s[i], want[i])) << bits << "-bit sqr " << i;
    }
    // FpLaneBatch queue/flush round.
    FpLaneBatch lane(*F);
    std::vector<FpElem> lr(k);
    for (std::size_t i = 0; i < k; ++i) {
      F->mul(want[i], a[i], b[i]);
      lane.mul(lr[i], a[i], b[i]);
    }
    EXPECT_EQ(lane.pending(), k);
    lane.flush();
    EXPECT_EQ(lane.pending(), 0u);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_TRUE(F->equal(lr[i], want[i]));
    }
  }
}

// --- pairing replay across dispatch levels ---------------------------------

// A PairingPrecomp table built under one dispatch level must replay to
// bit-identical pairings under the other, in every combination.
TEST(SimdDiff, PrecompTablesReplayIdenticallyAcrossLevels) {
  SecureRandom rng(9107);
  const TypeAParams params = typea_generate(rng, 48, 128);
  const PairingEngine engine(params);
  const EcPoint P = typea_random_subgroup_point(params, rng);
  const EcPoint Q = typea_random_subgroup_point(params, rng);
  const simd::Level levels[2] = {simd::Level::kScalar, simd::detected()};
  Fp2 results[2][2];
  for (int build = 0; build < 2; ++build) {
    simd::set_level(levels[build]);
    const PairingPrecomp pre = engine.precompute(P);
    for (int replay = 0; replay < 2; ++replay) {
      simd::set_level(levels[replay]);
      results[build][replay] = engine.pair(pre, Q);
    }
  }
  simd::set_level(simd::detected());
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      EXPECT_EQ(results[i][j].a, results[0][0].a) << i << "," << j;
      EXPECT_EQ(results[i][j].b, results[0][0].b) << i << "," << j;
    }
  }
}

// --- dispatch hammer (TSan leg) --------------------------------------------

// Batches race a thread flipping the dispatch level; every batch must stay
// bit-identical to the oracle no matter which level each call observes.
TEST(SimdDiff, DispatchToggleHammerKeepsResultsExact) {
  SecureRandom rng(9108);
  const std::size_t n = 4;
  const auto m = random_modulus(n, rng);
  const Limb n0 = limb::neg_inverse(m[0]);
  constexpr std::size_t k = 24;
  std::vector<std::vector<Limb>> a(k, std::vector<Limb>(n)),
      b(k, std::vector<Limb>(n)), want(k, std::vector<Limb>(n));
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t w = 0; w < n; ++w) {
      a[i][w] = rng.next_u64();
      b[i][w] = rng.next_u64();
    }
    limb::cios_mont_mul(want[i].data(), a[i].data(), b[i].data(), m.data(),
                        n0, n);
  }
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      std::vector<std::vector<Limb>> got(k, std::vector<Limb>(n));
      std::vector<simd::MontJob> jobs(k);
      for (std::size_t i = 0; i < k; ++i) {
        jobs[i] = simd::MontJob{got[i].data(), a[i].data(), b[i].data()};
      }
      for (int round = 0; round < 400 && !stop.load(); ++round) {
        simd::cios_mont_mul_xk(jobs.data(), k, m.data(), n0, n);
        for (std::size_t i = 0; i < k; ++i) {
          if (got[i] != want[i]) {
            failures.fetch_add(1);
            stop.store(true);
            return;
          }
        }
      }
      (void)t;
    });
  }
  std::thread toggler([&] {
    bool on = false;
    while (!stop.load()) {
      simd::set_level(on ? simd::detected() : simd::Level::kScalar);
      on = !on;
      std::this_thread::yield();
    }
  });
  for (auto& w : workers) w.join();
  stop.store(true);
  toggler.join();
  simd::set_level(simd::detected());
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace ppms
