// Ablation A2 — modular exponentiation strategy.
//
// Every protocol step bottoms out in modexp; this sweep justifies the
// dispatch policy in bigint/modarith.cpp (FpCtx Montgomery + sliding
// window for odd moduli up to 2048 bits, plain window otherwise) across
// the modulus sizes the system actually uses: tower primes (tens of bits),
// pairing fields (~128-192 bits) and RSA moduli (1024-2048 bits).
#include <benchmark/benchmark.h>

#include "bigint/limbs.h"
#include "bigint/modarith.h"
#include "bigint/prime.h"

namespace {

using namespace ppms;

struct Instance {
  Bigint base, exp, mod;
};

Instance make_instance(std::size_t bits) {
  SecureRandom rng(bits);
  Instance inst;
  inst.mod = random_prime(rng, bits);  // odd, worst-case full width
  inst.base = Bigint::random_below(rng, inst.mod);
  inst.exp = Bigint::random_bits(rng, bits);
  return inst;
}

void BM_ModexpBinary(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(modexp_binary(inst.base, inst.exp, inst.mod));
  }
}
BENCHMARK(BM_ModexpBinary)->Arg(64)->Arg(192)->Arg(512)->Arg(1024)->Arg(2048);

void BM_ModexpWindow(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(modexp_window(inst.base, inst.exp, inst.mod));
  }
}
BENCHMARK(BM_ModexpWindow)->Arg(64)->Arg(192)->Arg(512)->Arg(1024)->Arg(2048);

// A throwaway context per call: the uncached Montgomery baseline.
void BM_ModexpMontgomery(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(FpCtx(inst.mod).pow(inst.base, inst.exp));
  }
}
BENCHMARK(BM_ModexpMontgomery)
    ->Arg(64)->Arg(192)->Arg(512)->Arg(1024)->Arg(2048);

// The facade — should track the best per size.
void BM_ModexpDispatch(benchmark::State& state) {
  const Instance inst = make_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(modexp(inst.base, inst.exp, inst.mod));
  }
}
BENCHMARK(BM_ModexpDispatch)
    ->Arg(64)->Arg(192)->Arg(512)->Arg(1024)->Arg(2048);

}  // namespace

BENCHMARK_MAIN();
