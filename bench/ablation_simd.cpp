// Ablation A15 — SIMD lane-batched Montgomery kernels vs the scalar
// flat-limb path.
//
// This PR adds runtime-dispatched lane-batched CIOS kernels
// (src/bigint/simd.{h,cpp}: AVX2 / AVX-512 / AVX-512-IFMA, radix 2^28 or
// 2^52 with a pre-shift that keeps every result bit-identical to the
// scalar cios_mont_mul) and batches the protocol hot paths onto them:
// pair_product's shared squarings, line evaluations and per-group tree
// folds; cl_verify_batch's one big folded product; FixedBasePow's digit
// gathers. The sweep reports:
//   * raw kernel throughput per width (2/4/8/16 limbs) per dispatch level
//     through FpCtx::mul_batch — the microbench behind the lane design;
//   * one 64-signature cl_verify_batch, SIMD off vs auto;
//   * one 16-term pair_product over precomp tables, SIMD off vs auto;
//   * one 64-deposit settle through the bank's verify_batch, off vs auto.
// The protocol fixtures run at the paper's deployment scale — PBC Type A
// symmetric pairing, 512-bit base field (8 limbs), 160-bit group order —
// the width the market actually settles at, where the lane kernels are
// strongest. The kernel rows sweep all supported widths, including the
// 2-limb test scale used elsewhere in the suite.
// Every fixture self-checks bit-identity between the modes before timing.
// Both modes run on the same FpCtx field core — A15 isolates the lane
// batching. Run with --benchmark_out=BENCH_ablation_simd.json to
// regenerate the committed artifact.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bigint/limbs.h"
#include "bigint/simd.h"
#include "clsig/clsig.h"
#include "core/params.h"
#include "dec/session.h"
#include "pairing/pipeline.h"
#include "pairing/tate.h"

namespace {

using namespace ppms;

// Pin the dispatch level for the duration of one benchmark run. "off"
// forces the scalar kernels; "auto" re-enables the best detected level.
class ScopedLevel {
 public:
  explicit ScopedLevel(bool on) : saved_(simd::level()) {
    simd::set_level(on ? simd::detected() : simd::Level::kScalar);
  }
  ~ScopedLevel() { simd::set_level(saved_); }

 private:
  simd::Level saved_;
};

// --- raw kernel throughput per width --------------------------------------

struct KernelFixture {
  std::shared_ptr<const FpCtx> F;
  std::vector<FpElem> a, b, r;
  std::vector<FpCtx::MulJob> jobs;
};

KernelFixture kernel_fx(std::size_t n) {
  SecureRandom rng(2000 + n);
  Bigint m = Bigint::random_bits(rng, 64 * n - 1) + Bigint::two_pow(64 * n - 1);
  if (m.is_even()) m = m - Bigint(1);
  KernelFixture out;
  out.F = fp_ctx(m);
  constexpr std::size_t kJobs = 512;
  out.a.resize(kJobs);
  out.b.resize(kJobs);
  out.r.resize(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    out.a[i] = out.F->to_mont(Bigint::random_below(rng, m));
    out.b[i] = out.F->to_mont(Bigint::random_below(rng, m));
    out.jobs.push_back(FpCtx::MulJob{&out.r[i], &out.a[i], &out.b[i]});
  }
  return out;
}

void BM_KernelMul(benchmark::State& state, std::size_t n, bool on) {
  static KernelFixture fx[4] = {kernel_fx(2), kernel_fx(4), kernel_fx(8),
                                kernel_fx(16)};
  KernelFixture& f = fx[n == 2 ? 0 : n == 4 ? 1 : n == 8 ? 2 : 3];
  ScopedLevel lv(on);
  state.SetLabel(simd::level_name(simd::level()));
  for (auto _ : state) {
    f.F->mul_batch(f.jobs.data(), f.jobs.size());
    benchmark::DoNotOptimize(f.r.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.jobs.size()));
}

#define PPMS_KERNEL_BENCH(N)                                             \
  void BM_KernelMul##N##Off(benchmark::State& s) {                       \
    BM_KernelMul(s, N, false);                                           \
  }                                                                      \
  void BM_KernelMul##N##Auto(benchmark::State& s) {                      \
    BM_KernelMul(s, N, true);                                            \
  }                                                                      \
  BENCHMARK(BM_KernelMul##N##Off)                                        \
      ->Unit(benchmark::kMicrosecond)                                    \
      ->Name("A15/kernel/mul/n=" #N "/off");                             \
  BENCHMARK(BM_KernelMul##N##Auto)                                       \
      ->Unit(benchmark::kMicrosecond)                                    \
      ->Name("A15/kernel/mul/n=" #N "/auto")

PPMS_KERNEL_BENCH(2);
PPMS_KERNEL_BENCH(4);
PPMS_KERNEL_BENCH(8);
PPMS_KERNEL_BENCH(16);

// --- one 64-signature cl_verify_batch -------------------------------------

struct ClFixture {
  TypeAParams params;
  ClKeyPair kp;
  std::vector<ClBatchItem> items;
  bool identical = false;  // off/auto produced the same flags
};

ClFixture cl_fx() {
  SecureRandom rng(2101);
  ClFixture out;
  out.params = typea_generate(rng, 160, 512);
  out.kp = cl_keygen(out.params, rng);
  for (int i = 0; i < 64; ++i) {
    const Bigint m = Bigint::random_below(rng, out.params.r);
    out.items.push_back(
        ClBatchItem{m, cl_sign(out.params, out.kp.sk, m, rng)});
  }
  // The batch fold draws its own randomizers, so replay both modes from
  // identical verifier streams and require identical accept flags.
  std::vector<bool> got[2];
  for (int on = 0; on < 2; ++on) {
    ScopedLevel lv(on == 1);
    SecureRandom vrng(777);
    got[on] = cl_verify_batch(out.params, out.kp.pk, out.items, vrng);
  }
  out.identical = got[0] == got[1] &&
                  got[1] == std::vector<bool>(out.items.size(), true);
  return out;
}

void BM_ClVerifyBatch64(benchmark::State& state, bool on) {
  static const ClFixture fx = cl_fx();
  if (!fx.identical) {
    state.SkipWithError("simd/scalar mismatch in cl_verify_batch");
    return;
  }
  ScopedLevel lv(on);
  state.SetLabel(simd::level_name(simd::level()));
  SecureRandom vrng(778);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cl_verify_batch(fx.params, fx.kp.pk, fx.items, vrng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
void BM_ClVerifyBatch64Off(benchmark::State& s) {
  BM_ClVerifyBatch64(s, false);
}
void BM_ClVerifyBatch64Auto(benchmark::State& s) {
  BM_ClVerifyBatch64(s, true);
}
BENCHMARK(BM_ClVerifyBatch64Off)
    ->Unit(benchmark::kMillisecond)
    ->Name("A15/cl_verify_batch/off");
BENCHMARK(BM_ClVerifyBatch64Auto)
    ->Unit(benchmark::kMillisecond)
    ->Name("A15/cl_verify_batch/auto");

// --- one 16-term pair_product ---------------------------------------------

struct PairFixture {
  TypeAParams params;
  std::unique_ptr<PairingEngine> engine;
  std::vector<PairingPrecomp> tables;
  std::vector<PairingTerm> terms;
  bool identical = false;
};

PairFixture pair_fx() {
  SecureRandom rng(2202);
  PairFixture out;
  out.params = typea_generate(rng, 160, 512);
  out.engine = std::make_unique<PairingEngine>(out.params);
  out.tables.push_back(out.engine->precompute(out.params.g));
  for (int i = 0; i < 3; ++i) {
    out.tables.push_back(out.engine->precompute(
        typea_random_subgroup_point(out.params, rng)));
  }
  for (int i = 0; i < 16; ++i) {
    out.terms.push_back(PairingTerm{
        .pre = &out.tables[i % out.tables.size()],
        .Q = typea_random_subgroup_point(out.params, rng),
        .exp = Bigint::random_range(rng, Bigint(1), Bigint::two_pow(64)),
        .invert = (i % 3) == 0});
  }
  Fp2 got[2];
  for (int on = 0; on < 2; ++on) {
    ScopedLevel lv(on == 1);
    got[on] = out.engine->pair_product(out.terms);
  }
  out.identical = got[0].a == got[1].a && got[0].b == got[1].b;
  return out;
}

void BM_PairProduct16(benchmark::State& state, bool on) {
  static const PairFixture fx = pair_fx();
  if (!fx.identical) {
    state.SkipWithError("simd/scalar mismatch in pair_product");
    return;
  }
  ScopedLevel lv(on);
  state.SetLabel(simd::level_name(simd::level()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.engine->pair_product(fx.terms));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
void BM_PairProduct16Off(benchmark::State& s) { BM_PairProduct16(s, false); }
void BM_PairProduct16Auto(benchmark::State& s) { BM_PairProduct16(s, true); }
BENCHMARK(BM_PairProduct16Off)
    ->Unit(benchmark::kMillisecond)
    ->Name("A15/pair_product/off");
BENCHMARK(BM_PairProduct16Auto)
    ->Unit(benchmark::kMillisecond)
    ->Name("A15/pair_product/auto");

// --- one 64-deposit settle ------------------------------------------------

struct SettleFixture {
  DecParams params;
  std::unique_ptr<DecBank> bank;
  std::vector<DepositSpend> spends;
  std::vector<const DepositSpend*> members;
  bool identical = false;
};

SettleFixture settle_fx() {
  SecureRandom rng(2303);
  SettleFixture out;
  out.params = fast_dec_params(2303, 6, 512);
  out.bank = std::make_unique<DecBank>(out.params, rng);
  DecWallet wallet(out.params, rng);
  const Bytes ctx = bytes_of("a15");
  const auto cert = out.bank->withdraw(
      wallet.commitment(), wallet.prove_commitment(rng, ctx), ctx, rng);
  wallet.set_certificate(out.bank->public_key(), *cert);
  for (std::uint64_t i = 0; i < 64; ++i) {
    out.spends.emplace_back(
        wallet.spend(NodeIndex{6, i}, out.bank->public_key(), rng, {}));
  }
  for (const DepositSpend& d : out.spends) out.members.push_back(&d);
  std::vector<bool> got[2];
  for (int on = 0; on < 2; ++on) {
    ScopedLevel lv(on == 1);
    got[on] = out.bank->verify_batch(out.members);
  }
  out.identical = got[0] == got[1] &&
                  got[1] == std::vector<bool>(out.spends.size(), true);
  return out;
}

void BM_Settle64(benchmark::State& state, bool on) {
  static const SettleFixture fx = settle_fx();
  if (!fx.identical) {
    state.SkipWithError("simd/scalar mismatch in settle verify_batch");
    return;
  }
  ScopedLevel lv(on);
  state.SetLabel(simd::level_name(simd::level()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.bank->verify_batch(fx.members));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
void BM_Settle64Off(benchmark::State& s) { BM_Settle64(s, false); }
void BM_Settle64Auto(benchmark::State& s) { BM_Settle64(s, true); }
BENCHMARK(BM_Settle64Off)
    ->Unit(benchmark::kMillisecond)
    ->Name("A15/settle64/off");
BENCHMARK(BM_Settle64Auto)
    ->Unit(benchmark::kMillisecond)
    ->Name("A15/settle64/auto");

}  // namespace

BENCHMARK_MAIN();
