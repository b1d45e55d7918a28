// Ablation A5 — fixed-modulus fast paths (Montgomery context cache +
// projective Miller loop).
//
// Every long-lived protocol object (RSA key, pairing field, ZKP group)
// performs thousands of exponentiations against one fixed modulus. This
// sweep reports before/after pairs for the three paths the cache and the
// Jacobian Miller loop accelerate:
//   * repeated same-modulus 2048-bit modexp (uncached ctx-per-call vs.
//     cached per-modulus context),
//   * 2048-bit RSA verify,
//   * CL signature verify (affine vs. projective pairing),
//   * one full PPMSdec spend+verify (end-to-end beneficiary).
// Run with --benchmark_out=BENCH_ablation_fixedbase.json to regenerate the
// committed artifact.
#include <benchmark/benchmark.h>

#include <memory>

#include "bigint/limbs.h"
#include "bigint/modarith.h"
#include "bigint/montgomery.h"
#include "clsig/clsig.h"
#include "dec/bank.h"
#include "dec/wallet.h"
#include "pairing/tate.h"
#include "rsa/rsa.h"

namespace {

using namespace ppms;

// --- repeated same-modulus 2048-bit modexp --------------------------------

struct ModexpInstance {
  Bigint base, exp, mod;
};

const ModexpInstance& modexp_instance() {
  static const ModexpInstance inst = [] {
    SecureRandom rng(42);
    ModexpInstance i;
    i.mod = Bigint::random_bits(rng, 2048);
    if (i.mod.is_even()) i.mod += Bigint(1);
    i.base = Bigint::random_below(rng, i.mod);
    i.exp = Bigint::random_bits(rng, 2048);
    return i;
  }();
  return inst;
}

// Before: every call pays the full Montgomery setup (R² mod m, n0').
void BM_FixedBase_Modexp2048_Uncached(benchmark::State& state) {
  const ModexpInstance& inst = modexp_instance();
  for (auto _ : state) {
    const FpCtx ctx(inst.mod);
    benchmark::DoNotOptimize(modexp(inst.base, inst.exp, ctx));
  }
}
BENCHMARK(BM_FixedBase_Modexp2048_Uncached)->Unit(benchmark::kMillisecond);

// After: the context is built once and held for the session.
void BM_FixedBase_Modexp2048_CachedCtx(benchmark::State& state) {
  const ModexpInstance& inst = modexp_instance();
  const auto ctx = fp_ctx(inst.mod);
  for (auto _ : state) {
    benchmark::DoNotOptimize(modexp(inst.base, inst.exp, *ctx));
  }
}
BENCHMARK(BM_FixedBase_Modexp2048_CachedCtx)->Unit(benchmark::kMillisecond);

// The facade (cache lookup per call) — should sit on top of CachedCtx.
void BM_FixedBase_Modexp2048_Facade(benchmark::State& state) {
  const ModexpInstance& inst = modexp_instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(modexp(inst.base, inst.exp, inst.mod));
  }
}
BENCHMARK(BM_FixedBase_Modexp2048_Facade)->Unit(benchmark::kMillisecond);

// Repeated same-base/same-modulus exponentiation through the digit table:
// no squarings, one product per nonzero exponent digit. This is the ≥2×
// headline against the uncached baseline above.
void BM_FixedBase_Modexp2048_FixedBaseTable(benchmark::State& state) {
  const ModexpInstance& inst = modexp_instance();
  const FixedBasePow table(fp_ctx(inst.mod), inst.base, 2048);
  SecureRandom rng(48);
  // Fresh exponents per iteration — the table is amortized, the exponent
  // is not fixed.
  std::vector<Bigint> exps;
  for (int i = 0; i < 16; ++i) exps.push_back(Bigint::random_bits(rng, 2048));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.pow(exps[i++ % exps.size()]));
  }
}
BENCHMARK(BM_FixedBase_Modexp2048_FixedBaseTable)
    ->Unit(benchmark::kMillisecond);

// --- 2048-bit RSA verify ---------------------------------------------------

const RsaKeyPair& rsa_key() {
  static const RsaKeyPair kp = [] {
    SecureRandom rng(43);
    return rsa_generate(rng, 2048);
  }();
  return kp;
}

void BM_FixedBase_RsaVerify2048_Uncached(benchmark::State& state) {
  const RsaPublicKey& pk = rsa_key().pub;
  SecureRandom rng(44);
  const Bigint m = Bigint::random_below(rng, pk.n);
  for (auto _ : state) {
    const FpCtx ctx(pk.n);
    benchmark::DoNotOptimize(modexp(m, pk.e, ctx));
  }
}
BENCHMARK(BM_FixedBase_RsaVerify2048_Uncached);

void BM_FixedBase_RsaVerify2048_Cached(benchmark::State& state) {
  const RsaPublicKey& pk = rsa_key().pub;
  SecureRandom rng(44);
  const Bigint m = Bigint::random_below(rng, pk.n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_public_op(pk, m));
  }
}
BENCHMARK(BM_FixedBase_RsaVerify2048_Cached);

// --- CL verify: affine vs. projective pairing ------------------------------

struct ClFixture {
  TypeAParams params;
  ClKeyPair kp;
  Bigint msg;
  ClSignature sig;
};

const ClFixture& cl_fixture() {
  static const ClFixture fx = [] {
    SecureRandom rng(45);
    ClFixture f;
    f.params = typea_generate(rng, 48, 128);
    f.kp = cl_keygen(f.params, rng);
    f.msg = Bigint::random_range(rng, Bigint(1), f.params.r);
    f.sig = cl_sign(f.params, f.kp.sk, f.msg, rng);
    return f;
  }();
  return fx;
}

// Before: the five pairings of a CL verification with the affine loop
// (one field inversion per Miller step).
void BM_FixedBase_ClVerify_AffinePairing(benchmark::State& state) {
  const ClFixture& fx = cl_fixture();
  const Bigint& p = fx.params.p;
  const Bigint mr = fx.msg.mod(fx.params.r);
  for (auto _ : state) {
    const Fp2 lhs1 = tate_pairing_affine(fx.params, fx.sig.a, fx.kp.pk.Y);
    const Fp2 rhs1 = tate_pairing_affine(fx.params, fx.params.g, fx.sig.b);
    const Fp2 xa = tate_pairing_affine(fx.params, fx.kp.pk.X, fx.sig.a);
    const Fp2 xb = tate_pairing_affine(fx.params, fx.kp.pk.X, fx.sig.b);
    const Fp2 lhs2 = fp2_mul(xa, fp2_pow(xb, mr, p), p);
    const Fp2 rhs2 = tate_pairing_affine(fx.params, fx.params.g, fx.sig.c);
    const bool ok = lhs1 == rhs1 && lhs2 == rhs2;
    if (!ok) state.SkipWithError("affine CL verify failed");
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_FixedBase_ClVerify_AffinePairing)->Unit(benchmark::kMillisecond);

// After: cl_verify as shipped (projective Miller loop, one inversion per
// pairing).
void BM_FixedBase_ClVerify_Projective(benchmark::State& state) {
  const ClFixture& fx = cl_fixture();
  for (auto _ : state) {
    const bool ok = cl_verify(fx.params, fx.kp.pk, fx.msg, fx.sig);
    if (!ok) state.SkipWithError("cl_verify failed");
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_FixedBase_ClVerify_Projective)->Unit(benchmark::kMillisecond);

// --- one full PPMSdec spend ------------------------------------------------

struct SpendFixture {
  DecParams params;
  std::unique_ptr<DecBank> bank;
  std::unique_ptr<DecWallet> wallet;
};

SpendFixture& spend_fixture() {
  static SpendFixture fx = [] {
    SecureRandom rng(46);
    SpendFixture f;
    f.params = dec_setup(rng, 4, ChainSource::kTable, 128);
    f.bank = std::make_unique<DecBank>(f.params, rng);
    f.wallet = std::make_unique<DecWallet>(f.params, rng);
    const Bytes ctx = bytes_of("bench.fixedbase");
    const auto cert = f.bank->withdraw(
        f.wallet->commitment(), f.wallet->prove_commitment(rng, ctx), ctx,
        rng);
    f.wallet->set_certificate(f.bank->public_key(), *cert);
    return f;
  }();
  return fx;
}

// End-to-end beneficiary of both fast paths: the spend side exponentiates
// in the tower groups (cached contexts) and the verifier runs pairings
// (projective Miller loop).
void BM_FixedBase_DecSpendVerify(benchmark::State& state) {
  SpendFixture& fx = spend_fixture();
  SecureRandom rng(47);
  const NodeIndex node{2, 1};
  for (auto _ : state) {
    const SpendBundle bundle =
        fx.wallet->spend(node, fx.bank->public_key(), rng,
                         bytes_of("bench"));
    const bool ok = verify_spend(fx.params, fx.bank->public_key(), bundle);
    if (!ok) state.SkipWithError("spend failed to verify");
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_FixedBase_DecSpendVerify)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
