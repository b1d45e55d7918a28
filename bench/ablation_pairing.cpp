// Ablation A9 — pairing pipeline (fixed-argument Miller tables, products
// of pairings, batched CL verification).
//
// Every verification equation in the protocol pairs against a handful of
// per-market constants (g, the bank's X and Y), so the pipeline compiles
// those points into Miller line tables once, folds each equation's
// pairings into one product with a single final exponentiation, and folds
// a whole deposit tick's certificate equations into one randomized
// product. This sweep reports the before/after pairs at each level:
//   * one pairing: live Miller loop vs. table replay;
//   * one CL verify: five independent pairings (the pre-pipeline shape)
//     vs. two products vs. the 64-signature batch, amortized;
//   * one 64-deposit settle: per-deposit verification loops (naive
//     independent pairings, then the product/precomp path) vs. the bank's
//     folded verify_batch.
//   * one final exponentiation at the benchmark's 512-bit field (h of
//     455 bits): square-and-multiply in F_p² on the flat core (the engine's
//     former chain) vs. the batched Lucas ladder at K = 1, 3, 23 outputs
//     per call, reported per output.
//   * the GT half of the verify remainder at the 512-bit field (A1 ∈ GT
//     and V^z·W^(q−c) == A1): one member at a time vs. N members in one
//     lockstep pass, N = 1 and 21, reported per coin.
// Run with --benchmark_out=BENCH_ablation_pairing.json to regenerate the
// committed artifact.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "bigint/limbs.h"
#include "core/params.h"
#include "dec/session.h"
#include "dec/statement.h"
#include "pairing/pipeline.h"
#include "pairing/tate.h"
#include "zkp/equality.h"
#include "zkp/transcript.h"

namespace {

using namespace ppms;

// Replica of the pre-pipeline GtGroup: pairings as independent textbook
// Tate pairings, GT arithmetic through the plain (division-reduced) F_p²
// helpers, no Montgomery engine. describe() matches the current GtGroup so
// Fiat-Shamir transcripts — and hence proof verdicts — are identical. The
// pairing is the affine oracle: the projective Bigint loop the committed
// naive rows were timed against no longer exists, so fresh naive rows run
// slower than those.
class LegacyGtGroup final : public Group {
 public:
  explicit LegacyGtGroup(TypeAParams params) : params_(std::move(params)) {}

  Bytes encode(const Fp2& x) const { return fp2_serialize(x, params_.p); }
  Fp2 decode(const Bytes& a) const { return fp2_deserialize(a, params_.p); }
  Bytes pair(const EcPoint& P, const EcPoint& Q) const {
    return encode(tate_pairing_affine(params_, P, Q));
  }

  const Bigint& order() const override { return params_.r; }
  Bytes identity() const override { return encode(fp2_one()); }
  Bytes op(const Bytes& a, const Bytes& b) const override {
    return encode(fp2_mul(decode(a), decode(b), params_.p));
  }
  Bytes pow(const Bytes& base, const Bigint& exp) const override {
    return encode(fp2_pow(decode(base), exp.mod(params_.r), params_.p));
  }
  Bytes pow2(const Bytes& base1, const Bigint& e1, const Bytes& base2,
             const Bigint& e2) const override {
    const Bigint ea = e1.mod(params_.r);
    const Bigint eb = e2.mod(params_.r);
    const Fp2 a = decode(base1);
    const Fp2 b = decode(base2);
    const Fp2 ab = fp2_mul(a, b, params_.p);
    Fp2 acc = fp2_one();
    const std::size_t bits = std::max(ea.bit_length(), eb.bit_length());
    for (std::size_t i = bits; i-- > 0;) {
      acc = fp2_square(acc, params_.p);
      const bool ba = ea.bit(i);
      const bool bb = eb.bit(i);
      if (ba && bb) {
        acc = fp2_mul(acc, ab, params_.p);
      } else if (ba) {
        acc = fp2_mul(acc, a, params_.p);
      } else if (bb) {
        acc = fp2_mul(acc, b, params_.p);
      }
    }
    return encode(acc);
  }
  Bytes inv(const Bytes& a) const override {
    return encode(fp2_inv(decode(a), params_.p));
  }
  bool contains(const Bytes& a) const override {
    Fp2 x;
    try {
      x = decode(a);
    } catch (const std::invalid_argument&) {
      return false;
    }
    if (x.a.is_zero() && x.b.is_zero()) return false;
    return fp2_is_one(fp2_pow(x, params_.r, params_.p));
  }
  Bytes describe() const override {
    Bytes out = bytes_of("GtGroup/");
    const Bytes p = params_.p.to_bytes_be();
    out.insert(out.end(), p.begin(), p.end());
    return out;
  }

 private:
  TypeAParams params_;
};

// --- one pairing ----------------------------------------------------------

struct PairFixture {
  TypeAParams params;
  std::unique_ptr<PairingEngine> engine;
  PairingPrecomp pre_g;
  EcPoint Q;
};

const PairFixture& pair_fx() {
  static const PairFixture f = [] {
    SecureRandom rng(900);
    PairFixture out;
    out.params = typea_generate(rng, 48, 128);
    out.engine = std::make_unique<PairingEngine>(out.params);
    out.pre_g = out.engine->precompute(out.params.g);
    out.Q = typea_random_subgroup_point(out.params, rng);
    return out;
  }();
  return f;
}

void BM_PairLive(benchmark::State& state) {
  const PairFixture& f = pair_fx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.engine->pair(f.params.g, f.Q));
  }
}
BENCHMARK(BM_PairLive)->Unit(benchmark::kMicrosecond)->Name("A9/pair/live");

void BM_PairPrecomp(benchmark::State& state) {
  const PairFixture& f = pair_fx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.engine->pair(f.pre_g, f.Q));
  }
}
BENCHMARK(BM_PairPrecomp)
    ->Unit(benchmark::kMicrosecond)
    ->Name("A9/pair/precomp");

// --- one final exponentiation ---------------------------------------------

struct FinalExpFixture {
  TypeAParams params;
  std::unique_ptr<PairingEngine> engine;
  std::vector<Fp2> miller;  // 23 raw Miller values
  std::vector<Fp2> expect;  // their final exponentiations (pow oracle)
};

const FinalExpFixture& finalexp_fx() {
  static const FinalExpFixture f = [] {
    SecureRandom rng(930);
    FinalExpFixture out;
    out.params = typea_generate(rng, 57, 512);
    out.engine = std::make_unique<PairingEngine>(out.params);
    const PairingPrecomp pre = out.engine->precompute(out.params.g);
    std::vector<std::vector<PairingTerm>> products;
    for (int i = 0; i < 23; ++i) {
      products.push_back({PairingTerm{
          .pre = &pre, .Q = ec_mul(out.params.g, Bigint(i + 2), out.params.p)}});
    }
    out.miller = out.engine->miller_values(products);
    const Bigint& p = out.params.p;
    for (const Fp2& m : out.miller) {
      out.expect.push_back(
          fp2_pow(fp2_mul(fp2_conj(m, p), fp2_inv(m, p), p), out.params.h, p));
    }
    return out;
  }();
  return f;
}

// Seconds per output, shown next to the per-call time.
void per_output(benchmark::State& state, std::size_t k) {
  state.counters["per_output"] = benchmark::Counter(
      static_cast<double>(k) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

// The engine's former final exponentiation, one output per call: one
// instrumented inversion, conj(f)·f⁻¹, then square-and-multiply by h with
// flat-core F_p² arithmetic.
void BM_FinalExpSquareMultiply(benchmark::State& state) {
  const FinalExpFixture& f = finalexp_fx();
  const std::shared_ptr<const FpCtx> F = fp_ctx(f.params.p);
  const Fp2& m = f.miller.front();
  for (auto _ : state) {
    const FpElem x = F->to_mont(m.a);
    const FpElem y = F->to_mont(m.b);
    FpElem nrm, t;
    F->sqr(nrm, x);
    F->sqr(t, y);
    F->add(nrm, nrm, t);
    const FpElem ninv =
        F->to_mont(fp_inv(F->from_mont(nrm), f.params.p));
    Fp2Elem inv, conj{x, y}, z, out;
    F->mul(inv.a, x, ninv);
    F->neg(t, y);
    F->mul(inv.b, t, ninv);
    F->neg(conj.b, y);
    fp2_mul(*F, z, conj, inv);
    fp2_pow(*F, out, z, f.params.h);
    const Fp2 got{F->from_mont(out.a), F->from_mont(out.b)};
    if (got != f.expect.front()) state.SkipWithError("square-multiply wrong");
  }
  per_output(state, 1);
}
BENCHMARK(BM_FinalExpSquareMultiply)
    ->Unit(benchmark::kMicrosecond)
    ->Name("A9/finalexp/square_multiply");

// The batched Lucas-ladder final exponentiation over K outputs per call.
void BM_FinalExpLucas(benchmark::State& state) {
  const FinalExpFixture& f = finalexp_fx();
  const auto k = static_cast<std::size_t>(state.range(0));
  const std::vector<Fp2> in(f.miller.begin(),
                            f.miller.begin() + static_cast<std::ptrdiff_t>(k));
  for (auto _ : state) {
    const std::vector<Fp2> out = f.engine->final_exp(in);
    if (!std::equal(out.begin(), out.end(), f.expect.begin())) {
      state.SkipWithError("lucas final exponentiation wrong");
    }
  }
  per_output(state, k);
}
BENCHMARK(BM_FinalExpLucas)
    ->Unit(benchmark::kMicrosecond)
    ->ArgName("K")
    ->Arg(1)
    ->Arg(3)
    ->Arg(23)
    ->Name("A9/finalexp/lucas");

// --- one CL verification --------------------------------------------------

struct ClFixture {
  TypeAParams params;
  ClKeyPair kp;
  std::vector<ClBatchItem> items;  // 64 valid signatures
};

const ClFixture& cl_fx() {
  static const ClFixture f = [] {
    SecureRandom rng(910);
    ClFixture out;
    out.params = typea_generate(rng, 48, 128);
    out.kp = cl_keygen(out.params, rng);
    for (int i = 0; i < 64; ++i) {
      const Bigint m = Bigint::random_below(rng, out.params.r);
      out.items.push_back({m, cl_sign(out.params, out.kp.sk, m, rng)});
    }
    return out;
  }();
  return f;
}

// The pre-pipeline shape: each CL equation checked with independent
// textbook Tate pairings (five Miller loops, five final exponentiations
// per signature) and plain F_p² arithmetic.
bool naive_cl_verify(const TypeAParams& params, const ClPublicKey& pk,
                     const Bigint& m, const ClSignature& sig) {
  const Bigint& p = params.p;
  const Bigint mr = m.mod(params.r);
  if (!(tate_pairing_affine(params, sig.a, pk.Y) ==
        tate_pairing_affine(params, params.g, sig.b))) {
    return false;
  }
  const Fp2 lhs =
      fp2_mul(tate_pairing_affine(params, pk.X, sig.a),
              fp2_pow(tate_pairing_affine(params, pk.X, sig.b), mr, p), p);
  return lhs == tate_pairing_affine(params, params.g, sig.c);
}

void BM_ClVerifyNaive(benchmark::State& state) {
  const ClFixture& f = cl_fx();
  const ClBatchItem& item = f.items.front();
  for (auto _ : state) {
    if (!naive_cl_verify(f.params, f.kp.pk, item.m, item.sig)) {
      state.SkipWithError("naive verify failed");
    }
  }
}
BENCHMARK(BM_ClVerifyNaive)
    ->Unit(benchmark::kMillisecond)
    ->Name("A9/cl_verify/naive");

void BM_ClVerifyProduct(benchmark::State& state) {
  const ClFixture& f = cl_fx();
  const ClBatchItem& item = f.items.front();
  for (auto _ : state) {
    if (!cl_verify(f.params, f.kp.pk, item.m, item.sig)) {
      state.SkipWithError("verify failed");
    }
  }
}
BENCHMARK(BM_ClVerifyProduct)
    ->Unit(benchmark::kMillisecond)
    ->Name("A9/cl_verify/product");

// Product form with session-lifetime fixed-argument tables for g, X, Y —
// the shape the deposit path runs via DecSession: all five Miller loops
// are table replays sharing two final exponentiations.
void BM_ClVerifyPrecompProduct(benchmark::State& state) {
  const ClFixture& f = cl_fx();
  const ClBatchItem& item = f.items.front();
  const PairingEngine engine(f.params);
  const PairingPrecomp pre_g = engine.precompute(f.params.g);
  const PairingPrecomp pre_x = engine.precompute(f.kp.pk.X);
  const PairingPrecomp pre_y = engine.precompute(f.kp.pk.Y);
  const Bigint mr = item.m.mod(f.params.r);
  for (auto _ : state) {
    const bool eq1 = fp2_is_one(engine.pair_product({
        PairingTerm{.pre = &pre_y, .Q = item.sig.a},
        PairingTerm{.pre = &pre_g, .Q = item.sig.b, .invert = true},
    }));
    const bool eq2 = fp2_is_one(engine.pair_product({
        PairingTerm{.pre = &pre_x, .Q = item.sig.a},
        PairingTerm{.pre = &pre_x, .Q = item.sig.b, .exp = mr},
        PairingTerm{.pre = &pre_g, .Q = item.sig.c, .invert = true},
    }));
    if (!eq1 || !eq2) state.SkipWithError("precomp verify failed");
  }
}
BENCHMARK(BM_ClVerifyPrecompProduct)
    ->Unit(benchmark::kMillisecond)
    ->Name("A9/cl_verify/precomp_product");

void BM_ClVerifyBatch64(benchmark::State& state) {
  const ClFixture& f = cl_fx();
  SecureRandom rng(911);
  for (auto _ : state) {
    const auto ok = cl_verify_batch(f.params, f.kp.pk, f.items, rng);
    for (const bool b : ok) {
      if (!b) state.SkipWithError("batch verify failed");
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_ClVerifyBatch64)
    ->Unit(benchmark::kMillisecond)
    ->Name("A9/cl_verify/batch64");

// --- one 64-deposit settle ------------------------------------------------

struct SettleFixture {
  DecParams params;
  std::unique_ptr<DecBank> bank;
  std::vector<SpendBundle> spends;  // the 64 leaves of an L = 6 coin
  std::vector<DepositSpend> deposits;  // the same leaves, for verify_batch
  std::vector<const DepositSpend*> members;
};

const SettleFixture& settle_fx() {
  static const SettleFixture f = [] {
    SecureRandom rng(920);
    SettleFixture out;
    out.params = fast_dec_params(920, 6);
    out.bank = std::make_unique<DecBank>(out.params, rng);
    DecWallet wallet(out.params, rng);
    const Bytes ctx = bytes_of("a9");
    const auto cert = out.bank->withdraw(
        wallet.commitment(), wallet.prove_commitment(rng, ctx), ctx, rng);
    wallet.set_certificate(out.bank->public_key(), *cert);
    for (std::uint64_t i = 0; i < 64; ++i) {
      out.spends.push_back(
          wallet.spend(NodeIndex{6, i}, out.bank->public_key(), rng, {}));
    }
    out.deposits.assign(out.spends.begin(), out.spends.end());
    for (const DepositSpend& d : out.deposits) out.members.push_back(&d);
    return out;
  }();
  return f;
}

// The pre-pipeline per-deposit verifier, replicated from the original
// verify_spend: a GtGroup built per call, the cert equation and GT
// statement from independent textbook Tate pairings (five Miller loops,
// five final exponentiations per spend), and the equality proof checked
// over the division-based GT arithmetic. Structure checks are identical on
// every path and cheap, so they are elided here.
bool naive_verify_spend(const DecParams& params, const ClPublicKey& pk,
                        const SpendBundle& bundle) {
  // Pre-pipeline structure pass: subgroup membership at every level plus
  // the chain links (the current code membership-checks the root only).
  for (std::size_t d = 0; d <= bundle.node.depth; ++d) {
    const ZnGroup& g = params.tower[d];
    const Bigint& s = bundle.path_serials[d];
    if (s.is_negative() || s >= g.modulus()) return false;
    if (!g.contains(g.encode(s))) return false;
  }
  for (std::size_t step = 1; step <= bundle.node.depth; ++step) {
    // Pre-pipeline chain link: square-and-multiply generator power
    // (child_serial now goes through the fixed-base window table).
    const ZnGroup& g = params.tower[step];
    const Bigint exponent = bundle.path_serials[step - 1] * Bigint(2) +
                            Bigint(bundle.node.branch_bit(step) ? 1 : 0);
    const Bigint expected = g.decode(g.pow(g.generator(), exponent));
    if (bundle.path_serials[step] != expected) return false;
  }
  const TypeAParams& pa = params.pairing;
  const LegacyGtGroup gt(pa);
  const Bytes ay = gt.pair(bundle.cert.a, pk.Y);
  const Bytes gb = gt.pair(pa.g, bundle.cert.b);
  if (ay != gb) return false;
  const Bytes V = gt.pair(pk.X, bundle.cert.b);
  if (V == gt.identity()) return false;
  const Bytes W =
      gt.op(gt.pair(pa.g, bundle.cert.c), gt.inv(gt.pair(pk.X, bundle.cert.a)));
  const ZnGroup& g1 = params.tower[0];
  return equality_verify(gt, V, W, g1, g1.generator(),
                         g1.encode(bundle.path_serials.front()),
                         bundle.proof, spend_binding(params, bundle));
}

void BM_Settle64Naive(benchmark::State& state) {
  const SettleFixture& f = settle_fx();
  for (auto _ : state) {
    for (const SpendBundle& s : f.spends) {
      if (!naive_verify_spend(f.params, f.bank->public_key(), s)) {
        state.SkipWithError("naive verify failed");
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Settle64Naive)
    ->Unit(benchmark::kMillisecond)
    ->Name("A9/settle64/naive");

void BM_Settle64PerDeposit(benchmark::State& state) {
  const SettleFixture& f = settle_fx();
  for (auto _ : state) {
    for (const SpendBundle& s : f.spends) {
      if (!verify_spend(f.params, f.bank->public_key(), s)) {
        state.SkipWithError("verify failed");
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Settle64PerDeposit)
    ->Unit(benchmark::kMillisecond)
    ->Name("A9/settle64/per_deposit");

void BM_Settle64Batched(benchmark::State& state) {
  const SettleFixture& f = settle_fx();
  for (auto _ : state) {
    const auto ok = f.bank->verify_batch(f.members);
    for (const bool b : ok) {
      if (!b) state.SkipWithError("batch verify failed");
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Settle64Batched)
    ->Unit(benchmark::kMillisecond)
    ->Name("A9/settle64/batched");

// --- the verify remainder -------------------------------------------------

// The GT half of the verify remainder at the benchmark's 512-bit field: for
// each of 21 regular spends, the membership test A1 ∈ GT and the proof
// equation V^z · W^(q−c) == A1, on the statements one engine call produced.
// The rest of the remainder (structure checks, the Fiat–Shamir challenge,
// the tower-group side) runs per member in both shapes and is left out.
struct RemainderFixture {
  DecParams params;
  std::vector<Bytes> a1;                 // proof commitments A1
  std::vector<Group::Pow2Job> jobs;      // (V, z, W, q − c)
  std::vector<GtStatement> stmts;
};

const RemainderFixture& remainder_fx() {
  static const RemainderFixture f = [] {
    SecureRandom rng(940);
    RemainderFixture out;
    out.params = fast_dec_params(7, 4, 512);
    DecBank bank(out.params, rng);
    DecWallet wallet(out.params, rng);
    const Bytes ctx = bytes_of("a9");
    const auto cert = bank.withdraw(
        wallet.commitment(), wallet.prove_commitment(rng, ctx), ctx, rng);
    wallet.set_certificate(bank.public_key(), *cert);
    std::vector<SpendBundle> spends;
    std::vector<const ClSignature*> certs;
    for (std::uint64_t i = 0; i < 21; ++i) {
      spends.push_back(
          wallet.spend(NodeIndex{4, i % 16}, bank.public_key(), rng, {}));
    }
    for (const SpendBundle& s : spends) certs.push_back(&s.cert);
    CertBatch cb = verify_certs_with_statements(out.params, bank.public_key(),
                                                certs, rng);
    for (auto& st : cb.statements) out.stmts.push_back(std::move(*st));
    // The equality proof's challenge, re-derived with the verifier's
    // transcript layout (zkp/equality.cpp); a mismatch fails the flag
    // check below.
    const GtGroup& gt = out.params.session().gt();
    const ZnGroup& g1 = out.params.tower[0];
    const Bigint& q = gt.order();
    for (std::size_t i = 0; i < spends.size(); ++i) {
      const SpendBundle& s = spends[i];
      Transcript t("ppms.zkp.equality");
      t.absorb("group1", gt.describe());
      t.absorb("g1", out.stmts[i].V);
      t.absorb("y1", out.stmts[i].W);
      t.absorb("group2", g1.describe());
      t.absorb("g2", g1.generator());
      t.absorb("y2", g1.encode(s.path_serials.front()));
      t.absorb("A1", s.proof.commitment1);
      t.absorb("A2", s.proof.commitment2);
      t.absorb("context", spend_binding(out.params, s));
      const Bigint c = t.challenge("c", q);
      out.a1.push_back(s.proof.commitment1);
      out.jobs.push_back({&out.stmts[i].V, s.proof.response,
                          &out.stmts[i].W, (q - c).mod(q)});
    }
    return out;
  }();
  return f;
}

// Each of the first N members' A1 membership and left-hand side: one
// member at a time (GtGroup::contains and pow2, each a batch of one, as a
// one-coin deposit runs them), or all N in one lockstep pass.
std::pair<std::vector<bool>, std::vector<Bytes>> remainder(
    const RemainderFixture& f, std::size_t n, bool lockstep) {
  const GtGroup& gt = f.params.session().gt();
  if (lockstep) {
    std::vector<const Bytes*> a1;
    for (std::size_t i = 0; i < n; ++i) a1.push_back(&f.a1[i]);
    return {gt.contains_many(a1),
            gt.pow2_many({f.jobs.begin(),
                          f.jobs.begin() + static_cast<std::ptrdiff_t>(n)})};
  }
  std::pair<std::vector<bool>, std::vector<Bytes>> out;
  for (std::size_t i = 0; i < n; ++i) {
    const Group::Pow2Job& job = f.jobs[i];
    out.first.push_back(gt.contains(f.a1[i]));
    out.second.push_back(gt.pow2(*job.base1, job.e1, *job.base2, job.e2));
  }
  return out;
}

void BM_Remainder(benchmark::State& state, bool lockstep) {
  const RemainderFixture& f = remainder_fx();
  const auto n = static_cast<std::size_t>(state.range(0));
  // Both shapes must find every A1 in GT and every equation holding
  // before anything is timed.
  const std::vector<Bytes> want(f.a1.begin(),
                                f.a1.begin() + static_cast<std::ptrdiff_t>(n));
  const auto alone = remainder(f, n, false);
  const auto joint = remainder(f, n, true);
  if (alone != joint || alone.first != std::vector<bool>(n, true) ||
      alone.second != want) {
    state.SkipWithError("remainder shapes disagree");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(remainder(f, n, lockstep));
  }
  state.counters["per_coin"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_Remainder, per_member, false)
    ->Unit(benchmark::kMicrosecond)
    ->ArgName("N")
    ->Arg(1)
    ->Arg(21)
    ->Name("A9/remainder/per_member");
BENCHMARK_CAPTURE(BM_Remainder, lockstep, true)
    ->Unit(benchmark::kMicrosecond)
    ->ArgName("N")
    ->Arg(1)
    ->Arg(21)
    ->Name("A9/remainder/lockstep");

}  // namespace

BENCHMARK_MAIN();
