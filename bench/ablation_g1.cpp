// Ablation A16 — G1 scalar multiplication: the affine double-and-add
// oracle (ec_mul_affine, one field inversion per step over Bigint) against
// the flat Jacobian NAF ladder (ec_mul / ec_mul_many on FpCtx, one
// inversion per call), and what that does to the protocol steps built on
// it. Rows, each at a 128-bit (2-limb) and a 512-bit (8-limb) field with
// the 57-bit DEC group order r:
//   * one ec_mul with a 57-bit scalar, [r]P (the subgroup check) and [h]P
//     (the 455-bit cofactor at 512 bits; setup's generator search);
//   * cl_randomize as three oracle multiplies, three flat calls, and the
//     production lockstep ec_mul_many over (a, b, c);
//   * cl_sign_committed with oracle multiplies against production;
//   * one whole withdrawal (Schnorr proof, blind CL signing, the wallet's
//     cl_verify) and one whole spend, production only.
// Every oracle/flat pair is checked bit-identical before timing, and the
// protocol rows check their own outputs: any mismatch skips the row with
// an error and makes the binary exit nonzero.
// Run with --benchmark_out=BENCH_ablation_g1.json from the repo root to
// regenerate the committed artifact.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "clsig/clsig.h"
#include "core/params.h"
#include "dec/bank.h"
#include "dec/spend.h"
#include "dec/wallet.h"

namespace {

using namespace ppms;

bool g_failed = false;

void fail(benchmark::State& state, const char* why) {
  g_failed = true;
  state.SkipWithError(why);
}

struct G1Fixture {
  DecParams params;
  std::unique_ptr<DecBank> bank;
  std::unique_ptr<DecWallet> wallet;
  EcPoint P;           // a point of G
  EcPoint raw;         // a random curve point (for [h]P)
  Bigint k57;          // a full-width scalar below r
  ClSignature sig;     // the wallet's certificate
  EcPoint M;           // the wallet's commitment g^t
  ClKeyPair kp;        // a signing key the bench can see
};

G1Fixture& fixture(std::size_t bits) {
  static std::map<std::size_t, G1Fixture> cache;
  auto it = cache.find(bits);
  if (it != cache.end()) return it->second;
  // In place: DecWallet keeps a pointer to the DecParams it was built on.
  G1Fixture& fx = cache.emplace(bits, G1Fixture{}).first->second;
  fx.params = fast_dec_params(1600 + bits, 3, bits);
  const TypeAParams& tp = fx.params.pairing;
  SecureRandom rng(1700 + bits);
  fx.bank = std::make_unique<DecBank>(fx.params, rng);
  fx.wallet = std::make_unique<DecWallet>(fx.params, rng);
  fx.P = typea_random_subgroup_point(tp, rng);
  fx.raw = ec_random_point(rng, tp.p);
  do {
    fx.k57 = Bigint::random_below(rng, tp.r);
  } while (fx.k57.bit_length() != tp.r.bit_length());
  const Bytes ctx = bytes_of("a16.withdraw");
  const auto cert = fx.bank->withdraw(
      fx.wallet->commitment(), fx.wallet->prove_commitment(rng, ctx), ctx,
      rng);
  if (cert) {
    fx.sig = *cert;
    fx.wallet->set_certificate(fx.bank->public_key(), *cert);
  }
  fx.M = fx.wallet->commitment();
  fx.kp = cl_keygen(tp, rng);
  return fx;
}

// cl_sign_committed with every multiply on the oracle; same draws, so
// its output must equal the production signature for the same seed.
ClSignature sign_committed_oracle(const TypeAParams& tp,
                                  const ClSecretKey& sk, const EcPoint& M,
                                  SecureRandom& rng) {
  ClSignature sig;
  const Bigint alpha = Bigint::random_range(rng, Bigint(1), tp.r);
  sig.a = ec_mul_affine(tp.g, alpha, tp.p);
  sig.b = ec_mul_affine(sig.a, sk.y, tp.p);
  const EcPoint ax = ec_mul_affine(sig.a, sk.x, tp.p);
  const Bigint axy = (alpha * sk.x * sk.y).mod(tp.r);
  sig.c = ec_add(ax, ec_mul_affine(M, axy, tp.p), tp.p);
  return sig;
}

// One scalar-multiply row: base and scalar picked by `which`.
enum class Mul { kK57, kR, kH };

void BM_Mul(benchmark::State& state, std::size_t bits, Mul which,
            bool flat) {
  G1Fixture& fx = fixture(bits);
  const TypeAParams& tp = fx.params.pairing;
  const EcPoint& P = which == Mul::kH ? fx.raw : fx.P;
  const Bigint& k = which == Mul::kK57 ? fx.k57
                    : which == Mul::kR ? tp.r
                                       : tp.h;
  if (ec_mul(P, k, tp.p) != ec_mul_affine(P, k, tp.p)) {
    fail(state, "flat ec_mul differs from the affine oracle");
    return;
  }
  for (auto _ : state) {
    EcPoint q = flat ? ec_mul(P, k, tp.p) : ec_mul_affine(P, k, tp.p);
    benchmark::DoNotOptimize(q);
  }
  state.SetLabel(std::to_string(k.bit_length()) + "-bit scalar");
}

enum class Rand { kOracle, kThreeCalls, kLockstep };

void BM_Randomize(benchmark::State& state, std::size_t bits, Rand mode) {
  G1Fixture& fx = fixture(bits);
  const TypeAParams& tp = fx.params.pairing;
  const auto run = [&](SecureRandom& rng) {
    if (mode == Rand::kLockstep) return cl_randomize(tp, fx.sig, rng);
    const Bigint rho = Bigint::random_range(rng, Bigint(1), tp.r);
    const auto mul = mode == Rand::kOracle ? ec_mul_affine : ec_mul;
    return ClSignature{mul(fx.sig.a, rho, tp.p), mul(fx.sig.b, rho, tp.p),
                       mul(fx.sig.c, rho, tp.p)};
  };
  SecureRandom r1(5), r2(5);
  const ClSignature got = run(r1);
  const ClSignature want = cl_randomize(tp, fx.sig, r2);
  if (got.a != want.a || got.b != want.b || got.c != want.c ||
      !cl_verify(tp, fx.bank->public_key(), fx.wallet->secret_for_testing(),
                 got)) {
    fail(state, "randomized certificate mismatch");
    return;
  }
  SecureRandom rng(6);
  for (auto _ : state) {
    ClSignature s = run(rng);
    benchmark::DoNotOptimize(s);
  }
}

void BM_SignCommitted(benchmark::State& state, std::size_t bits, bool flat) {
  G1Fixture& fx = fixture(bits);
  const TypeAParams& tp = fx.params.pairing;
  const ClSecretKey& sk = fx.kp.sk;
  SecureRandom r1(7), r2(7);
  const ClSignature a = sign_committed_oracle(tp, sk, fx.M, r1);
  const ClSignature b = cl_sign_committed(tp, sk, fx.M, r2);
  if (a.a != b.a || a.b != b.b || a.c != b.c) {
    fail(state, "cl_sign_committed differs from the oracle");
    return;
  }
  SecureRandom rng(8);
  for (auto _ : state) {
    ClSignature s = flat ? cl_sign_committed(tp, sk, fx.M, rng)
                         : sign_committed_oracle(tp, sk, fx.M, rng);
    benchmark::DoNotOptimize(s);
  }
}

void BM_Withdraw(benchmark::State& state, std::size_t bits) {
  G1Fixture& fx = fixture(bits);
  SecureRandom rng(9);
  const Bytes ctx = bytes_of("a16.withdraw");
  for (auto _ : state) {
    const auto cert = fx.bank->withdraw(
        fx.wallet->commitment(), fx.wallet->prove_commitment(rng, ctx), ctx,
        rng);
    if (!cert) {
      fail(state, "withdrawal rejected");
      return;
    }
    fx.wallet->set_certificate(fx.bank->public_key(), *cert);  // cl_verify
  }
}

void BM_Spend(benchmark::State& state, std::size_t bits) {
  G1Fixture& fx = fixture(bits);
  SecureRandom rng(10);
  const NodeIndex node{3, 0};
  const ClPublicKey& pk = fx.bank->public_key();
  if (!verify_spend(fx.params, pk,
                    fx.wallet->spend(node, pk, rng, bytes_of("a16")))) {
    fail(state, "spend failed to verify");
    return;
  }
  for (auto _ : state) {
    SpendBundle s = fx.wallet->spend(node, pk, rng, bytes_of("a16"));
    benchmark::DoNotOptimize(s);
  }
}

void register_benchmarks() {
  const auto reg = [](const std::string& name, auto fn) {
    benchmark::RegisterBenchmark(("A16/" + name).c_str(), fn)
        ->Unit(benchmark::kMicrosecond);
  };
  for (const std::size_t bits : {128u, 512u}) {
    const std::string w = "/p" + std::to_string(bits);
    const std::pair<const char*, Mul> muls[] = {
        {"ec_mul_k57", Mul::kK57}, {"ec_mul_r", Mul::kR},
        {"ec_mul_h", Mul::kH}};
    for (const auto& [name, which] : muls) {
      for (const bool flat : {false, true}) {
        reg(std::string(name) + w + (flat ? "/flat" : "/oracle"),
            [=](benchmark::State& s) { BM_Mul(s, bits, which, flat); });
      }
    }
    const std::pair<const char*, Rand> rands[] = {
        {"/oracle", Rand::kOracle},
        {"/flat_three_calls", Rand::kThreeCalls},
        {"/flat_lockstep", Rand::kLockstep}};
    for (const auto& [name, mode] : rands) {
      reg("cl_randomize" + w + name,
          [=](benchmark::State& s) { BM_Randomize(s, bits, mode); });
    }
    for (const bool flat : {false, true}) {
      reg("cl_sign_committed" + w + (flat ? "/flat" : "/oracle"),
          [=](benchmark::State& s) { BM_SignCommitted(s, bits, flat); });
    }
    reg("withdraw" + w + "/flat",
        [=](benchmark::State& s) { BM_Withdraw(s, bits); });
    reg("spend" + w + "/flat",
        [=](benchmark::State& s) { BM_Spend(s, bits); });
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_benchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return g_failed ? 1 : 0;
}
