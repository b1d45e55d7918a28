// Flat-limb kernels: mpn-style fixed-width arithmetic over raw uint64_t
// arrays, and the FpCtx/FpElem/Fp2Elem layer every modular hot path runs on.
//
// `ppms::Bigint` pays a heap-allocated limb vector plus sign/size
// normalization on every operation; inside a Miller loop that allocator
// traffic is the measured floor, not the multiplies. The kernels here are
// the GMP-`mpn` shape instead: little-endian 64-bit limb arrays of a
// caller-known width, no allocation, no sign logic, carries returned to
// the caller. On top of them `FpCtx` fixes one odd modulus at setup
// (market creation) and `FpElem` is a stack-resident residue sized to it;
// every Montgomery product runs CIOS with 64-bit limbs and never touches
// the heap. FpCtx is the only Montgomery implementation in the library:
// RSA, the ZKP groups, primality testing and the pairing engine all use
// it, and moduli it does not support (even, or wider than 2048 bits) take
// the division-based ladders in bigint/modarith.h.
//
// Conversion discipline: `Bigint` appears only at API boundaries
// (`to_mont` / `from_mont` / `pow`). Everything between stays on raw
// limbs. tests/bigint/flatlimb_diff_test.cpp pins every kernel to plain
// Bigint arithmetic on adversarial operands.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "bigint/bigint.h"

namespace ppms {

namespace simd {
struct MontJob;
}

namespace limb {

using Limb = std::uint64_t;
__extension__ typedef unsigned __int128 Dlimb;  // double-limb accumulator

/// Widest modulus FpCtx accepts, in 64-bit limbs (2048 bits). Wider
/// moduli take the division-based ladders.
inline constexpr std::size_t kMaxFpLimbs = 32;

// All kernels operate on little-endian arrays of exactly `n` limbs unless
// a separate length is given. Output may alias either input for add_n and
// sub_n; mul/sqr require a disjoint output (they write before reading
// would finish).

/// r = a + b, returns the carry out (0 or 1).
Limb add_n(Limb* r, const Limb* a, const Limb* b, std::size_t n);

/// r = a - b, returns the borrow out (0 or 1).
Limb sub_n(Limb* r, const Limb* a, const Limb* b, std::size_t n);

/// r[0..an+bn) = a * b (schoolbook). r must not alias a or b.
void mul(Limb* r, const Limb* a, std::size_t an, const Limb* b,
         std::size_t bn);

/// r[0..2n) = a². Off-diagonal products are computed once and doubled.
/// r must not alias a.
void sqr(Limb* r, const Limb* a, std::size_t n);

/// Lexicographic magnitude compare: -1, 0, +1.
int cmp_n(const Limb* a, const Limb* b, std::size_t n);

/// True when all n limbs are zero.
bool is_zero_n(const Limb* a, std::size_t n);

/// Fused CIOS Montgomery product: r = a·b·2^{-64n} mod m for a, b < 2^{64n},
/// m odd, n0 = -m^{-1} mod 2^64. The accumulator lives on the stack; r may
/// alias a or b. For a, b < m the result is fully reduced; for larger
/// in-width operands it is < m + 2^{64n} and the caller must post-reduce.
/// Precondition: 1 <= n <= kMaxFpLimbs — the stack accumulator is sized to
/// kMaxFpLimbs, so a wider caller-supplied n would smash it; out-of-range n
/// throws std::invalid_argument instead of writing out of bounds.
void cios_mont_mul(Limb* r, const Limb* a, const Limb* b, const Limb* m,
                   Limb n0, std::size_t n);

/// -m^{-1} mod 2^64 for odd m0 (Newton iteration).
Limb neg_inverse(Limb m0);

// One limb of a carry (borrow) chain: returns a + b + c (a - b - c) and
// updates the carry (borrow) bit. On x86-64 these are the ADC/SBB
// intrinsics, which keep the chain in the carry flag; elsewhere a
// double-limb accumulator.
inline Limb add_carry(Limb a, Limb b, unsigned char& c) {
#if defined(__x86_64__)
  unsigned long long r;
  c = _addcarry_u64(c, a, b, &r);
  return r;
#else
  const Dlimb sum = static_cast<Dlimb>(a) + b + c;
  c = static_cast<unsigned char>(sum >> 64);
  return static_cast<Limb>(sum);
#endif
}
inline Limb sub_borrow(Limb a, Limb b, unsigned char& bw) {
#if defined(__x86_64__)
  unsigned long long r;
  bw = _subborrow_u64(bw, a, b, &r);
  return r;
#else
  const Dlimb dif = static_cast<Dlimb>(a) - b - bw;
  bw = static_cast<unsigned char>((dif >> 64) & 1);
  return static_cast<Limb>(dif);
#endif
}

// Modular linear ops on reduced residues (r = a ± b mod m, r = -a mod m),
// generic over the limb count like cios_mont_mul's core: FpCtx dispatches
// the common widths (2, 4, 8 limbs) to instances with the trip counts
// known, so the compiler unrolls the carry chains; N == 0 is the
// variable-width fallback on n_rt limbs. Each op is a few straight carry
// chains with the reduction applied as a masked addend of m — no
// branch, and no select pass over two candidate results. r may alias a
// or b: every limb is read before it is written.
template <std::size_t N>
inline void mod_add(Limb* r, const Limb* a, const Limb* b, const Limb* m,
                    std::size_t n_rt) {
  const std::size_t n = N == 0 ? n_rt : N;
  Limb s[N == 0 ? kMaxFpLimbs : N];
  unsigned char c = 0, bw = 0, c2 = 0;
  for (std::size_t i = 0; i < n; ++i) s[i] = add_carry(a[i], b[i], c);
  for (std::size_t i = 0; i < n; ++i) s[i] = sub_borrow(s[i], m[i], bw);
  // a + b - m is the result unless the sum neither overflowed n limbs
  // nor reached m (no carry, borrow): then add m back.
  const Limb mask = 0 - static_cast<Limb>(bw & (c ^ 1));
  for (std::size_t i = 0; i < n; ++i) r[i] = add_carry(s[i], m[i] & mask, c2);
}

template <std::size_t N>
inline void mod_sub(Limb* r, const Limb* a, const Limb* b, const Limb* m,
                    std::size_t n_rt) {
  const std::size_t n = N == 0 ? n_rt : N;
  Limb d[N == 0 ? kMaxFpLimbs : N];
  unsigned char bw = 0, c = 0;
  for (std::size_t i = 0; i < n; ++i) d[i] = sub_borrow(a[i], b[i], bw);
  const Limb mask = 0 - static_cast<Limb>(bw);  // borrowed: add m back
  for (std::size_t i = 0; i < n; ++i) r[i] = add_carry(d[i], m[i] & mask, c);
}

template <std::size_t N>
inline void mod_neg(Limb* r, const Limb* a, const Limb* m, std::size_t n_rt) {
  const std::size_t n = N == 0 ? n_rt : N;
  Limb nz = 0;
  for (std::size_t i = 0; i < n; ++i) nz |= a[i];
  // m - a, or 0 - 0 for a = 0.
  const Limb mask = 0 - static_cast<Limb>(nz != 0);
  unsigned char bw = 0;
  for (std::size_t i = 0; i < n; ++i) r[i] = sub_borrow(m[i] & mask, a[i], bw);
}

}  // namespace limb

/// One residue mod the FpCtx modulus: a fixed-capacity stack array of which
/// the context's first `limbs()` entries are significant. Plain aggregate —
/// copies are memcpy, no allocation anywhere.
struct FpElem {
  std::array<limb::Limb, limb::kMaxFpLimbs> v{};
};

/// F_p² element (a + b·i) over FpElem coordinates; the flat counterpart of
/// `Fp2` for the pairing's target field.
struct Fp2Elem {
  FpElem a, b;
};

/// Fixed-modulus flat-limb field context, sized to the market modulus at
/// setup. Precomputes n0' and R², then serves allocation-free modular
/// arithmetic on FpElem. All methods are const and thread-safe; one context
/// is shared per modulus via `fp_ctx`.
class FpCtx {
 public:
  /// Requires m odd, > 1 and at most kMaxFpLimbs·64 bits wide; throws
  /// std::invalid_argument otherwise (use supports() to pre-check).
  explicit FpCtx(const Bigint& m);

  /// True when FpCtx(m) would succeed.
  static bool supports(const Bigint& m);

  /// Significant limbs of every element under this context.
  std::size_t limbs() const { return n_; }

  const Bigint& modulus() const { return m_big_; }

  FpElem zero() const { return FpElem{}; }

  /// 1 in Montgomery form (R mod m).
  const FpElem& one() const { return r_mod_m_; }

  bool is_zero(const FpElem& a) const { return limb::is_zero_n(a.v.data(), n_); }
  bool equal(const FpElem& a, const FpElem& b) const {
    return limb::cmp_n(a.v.data(), b.v.data(), n_) == 0;
  }

  // Modular ring ops on reduced elements (linear ops are domain-agnostic;
  // mul/sqr are Montgomery products). Outputs may alias inputs. Defined
  // inline over limb::mod_add/mod_sub/mod_neg: at pairing widths (2–8
  // limbs) these are a handful of instructions, and the call into three
  // limb kernels (add_n + cmp_n + sub_n) costs more than the arithmetic —
  // every lane batch waits on them once its products are lane-batched.
  void add(FpElem& r, const FpElem& a, const FpElem& b) const {
    add_raw(r.v.data(), a.v.data(), b.v.data());
  }
  void sub(FpElem& r, const FpElem& a, const FpElem& b) const {
    sub_raw(r.v.data(), a.v.data(), b.v.data());
  }
  void neg(FpElem& r, const FpElem& a) const {
    neg_raw(r.v.data(), a.v.data());
  }
  // Raw-pointer forms of the linear ops for callers that keep residues in
  // compact limbs()-stride arrays instead of full-width FpElems (batch
  // scratch, line tables). Each array holds limbs() limbs; outputs may
  // alias inputs.
  void add_raw(limb::Limb* r, const limb::Limb* a, const limb::Limb* b) const {
    switch (n_) {
      case 2: limb::mod_add<2>(r, a, b, m_.data(), 2); return;
      case 4: limb::mod_add<4>(r, a, b, m_.data(), 4); return;
      case 8: limb::mod_add<8>(r, a, b, m_.data(), 8); return;
      default: limb::mod_add<0>(r, a, b, m_.data(), n_); return;
    }
  }
  void sub_raw(limb::Limb* r, const limb::Limb* a, const limb::Limb* b) const {
    switch (n_) {
      case 2: limb::mod_sub<2>(r, a, b, m_.data(), 2); return;
      case 4: limb::mod_sub<4>(r, a, b, m_.data(), 4); return;
      case 8: limb::mod_sub<8>(r, a, b, m_.data(), 8); return;
      default: limb::mod_sub<0>(r, a, b, m_.data(), n_); return;
    }
  }
  void neg_raw(limb::Limb* r, const limb::Limb* a) const {
    switch (n_) {
      case 2: limb::mod_neg<2>(r, a, m_.data(), 2); return;
      case 4: limb::mod_neg<4>(r, a, m_.data(), 4); return;
      case 8: limb::mod_neg<8>(r, a, m_.data(), 8); return;
      default: limb::mod_neg<0>(r, a, m_.data(), n_); return;
    }
  }
  void dbl(FpElem& r, const FpElem& a) const { add(r, a, a); }
  void mul(FpElem& r, const FpElem& a, const FpElem& b) const {
    limb::cios_mont_mul(r.v.data(), a.v.data(), b.v.data(), m_.data(), n0_,
                        n_);
  }
  void sqr(FpElem& r, const FpElem& a) const { mul(r, a, a); }

  /// x (any integer) into Montgomery form: x·R mod m.
  FpElem to_mont(const Bigint& x) const;

  /// Montgomery-form element back to an ordinary Bigint residue.
  Bigint from_mont(const FpElem& a) const;

  /// Copy the low limbs of a non-negative x < 2^{64·limbs()} into an FpElem
  /// without any domain change (pack) and back (unpack). The linear ops
  /// are domain-agnostic, so these let callers use them on plain residues.
  FpElem pack(const Bigint& x) const;
  Bigint unpack(const FpElem& a) const;

  /// base^exp mod m (base any integer, exp >= 0; throws
  /// std::invalid_argument for a negative exponent) by sliding-window
  /// exponentiation, window 4, entirely on stack residues: the ladder
  /// converts to and from Bigint once at each end.
  Bigint pow(const Bigint& base, const Bigint& exp) const;

  /// One queued Montgomery product for mul_batch. The output may alias the
  /// job's own inputs, but must not alias the operands of any other job in
  /// the same batch: the batch is computed as-if simultaneously (SIMD lane
  /// groups), not sequentially.
  struct MulJob {
    FpElem* r;
    const FpElem* a;
    const FpElem* b;
  };

  /// Run k independent Montgomery products, lane-batched across SIMD
  /// lanes when the dispatch level (bigint/simd.h) allows, in-order scalar
  /// otherwise. Either way every job executes and each result is the exact
  /// cios_mont_mul output.
  void mul_batch(const MulJob* jobs, std::size_t k) const;

  /// Same batch on raw-pointer jobs (each pointer addresses limbs() limbs),
  /// for callers that already hold compact limb arrays — skips the
  /// FpElem-to-raw repackaging pass mul_batch does.
  void mul_batch_raw(const simd::MontJob* jobs, std::size_t k) const;

  /// Squaring batch: r[i] = a[i]² in the Montgomery domain.
  void sqr_batch(FpElem* const* r, const FpElem* const* a,
                 std::size_t k) const;

 private:
  std::size_t n_ = 0;
  limb::Limb n0_ = 0;
  std::array<limb::Limb, limb::kMaxFpLimbs> m_{};
  FpElem r_mod_m_;   // R mod m
  FpElem r2_mod_m_;  // R² mod m
  Bigint m_big_;
};

/// Collects independent Montgomery products and flushes them through
/// FpCtx::mul_batch in one call, so hot loops can phrase "these k products
/// don't depend on each other" without touching the SIMD layer directly.
/// Queued outputs must not alias other queued jobs' inputs (scratch
/// outputs make this trivial); flush() preserves queue order for the
/// scalar fallback. The referenced FpCtx and every queued operand must
/// outlive the flush.
class FpLaneBatch {
 public:
  explicit FpLaneBatch(const FpCtx& F) : F_(&F) {}

  void mul(FpElem& r, const FpElem& a, const FpElem& b) {
    jobs_.push_back(FpCtx::MulJob{&r, &a, &b});
  }
  void sqr(FpElem& r, const FpElem& a) {
    jobs_.push_back(FpCtx::MulJob{&r, &a, &a});
  }

  std::size_t pending() const { return jobs_.size(); }
  void reserve(std::size_t n) { jobs_.reserve(n); }

  /// Run everything queued since the last flush, then clear the queue.
  void flush() {
    F_->mul_batch(jobs_.data(), jobs_.size());
    jobs_.clear();
  }

 private:
  const FpCtx* F_;
  std::vector<FpCtx::MulJob> jobs_;
};

/// Shared per-modulus FpCtx from a process-wide cache (created on first
/// use; later calls for the same modulus are a shared-lock lookup).
/// Requires FpCtx::supports(m), std::invalid_argument otherwise. The
/// returned pointer stays valid even if the cache is cleared.
std::shared_ptr<const FpCtx> fp_ctx(const Bigint& m);

/// Number of cached contexts / drop the cache (tests, benches).
std::size_t fp_ctx_cache_size();
void fp_ctx_cache_clear();

// F_p² helpers over Fp2Elem. Same 3-multiplication Karatsuba shapes as the
// fp2.h reference implementations; outputs may alias inputs. The pairing's
// final exponentiation (and its one inversion) lives with the engine.
void fp2_mul(const FpCtx& F, Fp2Elem& r, const Fp2Elem& x, const Fp2Elem& y);
void fp2_sqr(const FpCtx& F, Fp2Elem& r, const Fp2Elem& x);

/// x^e for e >= 0 by square-and-multiply (MSB first), all in-domain.
void fp2_pow(const FpCtx& F, Fp2Elem& r, const Fp2Elem& x, const Bigint& e);

}  // namespace ppms
