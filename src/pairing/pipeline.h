// Pairing pipeline: fixed-argument Miller precomputation, products of
// pairings, and a session-lifetime engine on the flat-limb field core.
//
// The protocol's pairing equations all have the shape
//     ê(P_1,Q_1)^{e_1} · ê(P_2,Q_2)^{e_2} · ... == 1  (or == some GT value)
// where the first arguments are a handful of per-market constants (the
// curve generator g, the bank's CL key points X and Y — the pairing is
// symmetric, so every equation can be oriented constant-first). Three
// observations make this much cheaper than independent textbook pairings:
//
//  * the Miller loop's line coefficients depend only on the first point
//    and the bits of r, so a fixed P can be "compiled" once into a
//    `PairingPrecomp` table and each later pairing replays it with two
//    field products per step instead of a full Jacobian double/add;
//  * the final exponentiation f ↦ f^{(p²-1)/r} is multiplicative, so a
//    product of k pairings needs only one of them (`pair_product`
//    combines the Miller values first); an inverted factor costs nothing
//    extra because FE(conj(f)) = FE(f)^{-1};
//  * independent products share one pass (`pair_products`): their Miller
//    loops interleave, and their final exponentiations run in step as
//    Lucas ladders — z = conj(f)/f has norm 1, so z^h follows from the
//    trace sequence V_j = z^j + z^{-j}, one F_p product and one square
//    per bit of h, lane-batched across every output, after a single
//    field inversion for the whole call (Montgomery's trick). The same
//    ladder over the bits of r decides GT membership (`gt_contains_many`),
//    and the verifiers' double exponentiations run as joint chains in
//    step (`gt_pow2_many`);
//  * every F_p product runs on stack-resident FpElem residues in the
//    Montgomery domain of the shared per-modulus FpCtx (bigint/limbs.h),
//    entering once per pairing and leaving once at the end, with
//    independent products lane-batched through FpCtx::mul_batch.
//
// One Jacobian Miller loop serves every entry point: `pair` is a one-term
// product, and a table replays the lines the same loop recorded. All of
// this is exact, not approximate: each path produces results
// bit-identical to the `tate_pairing_affine` oracle (see
// tests/pairing/pipeline_test.cpp for the differential suite).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "pairing/typea.h"

namespace ppms {

class FpCtx;
class PairingEngine;
struct Fp2Elem;

/// Compiled Miller line table for a fixed first pairing argument. Immutable
/// after construction (safe to share across threads); build one via
/// `PairingEngine::precompute` for each per-market constant point.
class PairingPrecomp {
 public:
  PairingPrecomp() = default;

  /// The fixed point this table was compiled for.
  const EcPoint& point() const { return point_; }

  /// True until `PairingEngine::precompute` has filled the table.
  bool empty() const { return !built_; }

 private:
  friend class PairingEngine;

  EcPoint point_;
  // One line per Miller-loop step, in loop order (the doubling line of
  // each bit of r, then its addition line when the bit is set): c0‖c1‖c2,
  // each FpCtx::limbs() 64-bit limbs in Montgomery form. The line value
  // at φ(Q) = (-xq, i·yq) is (c0 + c1·xq) + (c2·yq)·i; degenerate
  // vertical/infinity events encode the constant 1 as (1, 0, 0).
  std::vector<std::uint64_t> coeffs_;
  bool built_ = false;
};

/// One factor ê(P, Q)^{±exp} of a product of pairings. Set `pre` to use a
/// fixed-argument table (P is then ignored); otherwise P is used directly.
/// `exp` is reduced modulo r; `invert` contributes the factor's inverse
/// (computed by conjugation, which is exact for GT elements).
struct PairingTerm {
  const PairingPrecomp* pre = nullptr;
  EcPoint P = EcPoint::at_infinity();
  EcPoint Q = EcPoint::at_infinity();
  Bigint exp = Bigint(1);
  bool invert = false;
};

/// Session-lifetime pairing engine for one set of Type-A parameters.
/// Construction is cheap (the Montgomery context is shared per modulus),
/// but callers that hold one across calls also amortize the precomp
/// tables they build. All methods are const and thread-safe.
class PairingEngine {
 public:
  /// Throws std::invalid_argument unless FpCtx::supports(params.p).
  explicit PairingEngine(TypeAParams params);

  const TypeAParams& params() const { return params_; }

  /// Compile the Miller line table for fixed first argument P. Validates
  /// once that P is on the curve and in the order-r subgroup G
  /// (std::invalid_argument otherwise); the table costs about one Miller
  /// loop to build and pays for itself after roughly two pairings against
  /// it.
  PairingPrecomp precompute(const EcPoint& P) const;

  /// ê(P, Q), bit-identical to tate_pairing_affine.
  Fp2 pair(const EcPoint& P, const EcPoint& Q) const;

  /// ê(pre.point(), Q) via the compiled table. The table must come from
  /// an engine for the same parameters (std::invalid_argument if its size
  /// does not match this engine's Miller loop).
  Fp2 pair(const PairingPrecomp& pre, const EcPoint& Q) const;

  /// ∏_i ê(P_i, Q_i)^{±e_i} with one final exponentiation for the whole
  /// product. Unit-exponent factors share the accumulator; factors with
  /// equal non-unit exponents share a second one (the batch-verify shape).
  /// Returns 1 for an empty product. Bit-identical to composing the
  /// oracle pairings with fp2_pow / fp2_inv.
  Fp2 pair_product(const std::vector<PairingTerm>& terms) const;

  /// One value per product, each bit-identical to pair_product of that
  /// product alone, from one interleaved Miller pass over every product's
  /// terms and one batched final exponentiation — one fp_inv for the whole
  /// call however many products it holds. pair and pair_product are its
  /// one-product case.
  std::vector<Fp2> pair_products(
      const std::vector<std::vector<PairingTerm>>& products) const;

  /// The raw Miller value of each product (exponent groups applied, no
  /// final exponentiation; 1 for a product with no non-trivial factor):
  /// pair_products(x)[k] == final_exp(miller_values(x))[k]. For tests and
  /// benches that look inside the pipeline.
  std::vector<Fp2> miller_values(
      const std::vector<std::vector<PairingTerm>>& products) const;

  /// f ↦ f^{(p²-1)/r} = (conj(f)/f)^h for every element, in step, with one
  /// fp_inv for the whole vector (none when every f is in F_p or i·F_p).
  /// Throws std::domain_error if some f is zero. The same routine ends
  /// every pairing entry point; called directly it is not counted in
  /// crypto.pairing.finalexp, which counts pairing outputs.
  std::vector<Fp2> final_exp(const std::vector<Fp2>& f) const;

  /// x^e in F_p² for e >= 0, in the Montgomery domain; bit-identical to
  /// fp2_pow. Backs GtGroup::pow.
  Fp2 gt_pow(const Fp2& x, const Bigint& e) const;

  /// GT membership (x^r == 1) of every element, decided in step: the
  /// norm test a² + b² == 1 (every element of order r has norm 1, as
  /// r | p + 1), then the Lucas ladder V_r(2a) == 2 over the bits of r
  /// for the norm-1 elements, lane-batched across all of them — the same
  /// ladder as the final exponentiation's. Each flag equals
  /// fp2_is_one(fp2_pow(x, r)) for x with coordinates in [0, p); zero and
  /// non-unitary elements fail the norm test. GtGroup::contains and
  /// contains_many run on it.
  std::vector<bool> gt_contains_many(const std::vector<Fp2>& xs) const;

  /// One x1^e1 · x2^e2 (e1, e2 >= 0) per job: joint Shamir chains for all
  /// jobs in step, every bit's squarings and then its multiplies going out
  /// as one lane batch. Each output is bit-identical to
  /// fp2_mul(fp2_pow(x1, e1), fp2_pow(x2, e2)), whatever the inputs (GT
  /// members or not). Throws std::invalid_argument on a negative exponent.
  struct GtPow2 {
    Fp2 x1;
    Bigint e1;
    Fp2 x2;
    Bigint e2;
  };
  std::vector<Fp2> gt_pow2_many(const std::vector<GtPow2>& jobs) const;

 private:
  /// The Miller loop behind every entry point: interleaves every
  /// non-trivial term of `count` products, live or replayed, over one pass
  /// of r's bits. Writes product k's Miller value (Montgomery form; 1 when
  /// it has no non-trivial factor) to f[k] and returns how many products
  /// had one.
  std::size_t miller_loop(const std::vector<PairingTerm>* products,
                          std::size_t count, std::vector<Fp2Elem>& f) const;

  /// miller_loop, then one batched final exponentiation over all products.
  std::vector<Fp2> evaluate(const std::vector<PairingTerm>* products,
                            std::size_t count) const;

  TypeAParams params_;
  std::shared_ptr<const FpCtx> fp_;
  std::size_t miller_steps_ = 0;  // lines per loop (= lines per table)
};

}  // namespace ppms
