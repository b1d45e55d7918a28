#include "pairing/pipeline.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "bigint/limbs.h"
#include "bigint/simd.h"
#include "obs/metrics.h"
#include "pairing/fp.h"

namespace ppms {

namespace {

struct PairingCounters {
  obs::Counter& calls;
  obs::Counter& miller;
  obs::Counter& finalexp;
  obs::Counter& precomp_hits;
};

PairingCounters& counters() {
  static PairingCounters c{obs::counter("crypto.pairing.calls"),
                           obs::counter("crypto.pairing.miller"),
                           obs::counter("crypto.pairing.finalexp"),
                           obs::counter("crypto.pairing.precomp_hits")};
  return c;
}

// Jacobian point with Montgomery-form coordinates; Z = 0 is infinity.
struct Jac {
  FpElem X, Y, Z;
};

// Line coefficients (Montgomery form): the value at φ(Q) = (-xq, i·yq) is
// (c0 + c1·xq) + (c2·yq)·i. The unit line is (1, 0, 0).
struct Line {
  FpElem c0, c1, c2;
};

Line unit_line(const FpCtx& F) { return {F.one(), F.zero(), F.zero()}; }

// Doubling V ← 2V on y² = x³ + x, returning the tangent line at the old V
// scaled by Z₃·Z² ∈ F_p* — a factor the (p-1) part of the final
// exponentiation annihilates, which is what makes the step inversion-free:
// real = (E·X - 2Y²) + (E·Z²)·xq, imag = (Z₃·Z²)·yq.
Line dbl_step(const FpCtx& F, Jac& V) {
  if (F.is_zero(V.Z)) return unit_line(F);
  if (F.is_zero(V.Y)) {  // order-2 point: vertical tangent
    V = Jac{F.one(), F.one(), F.zero()};
    return unit_line(F);
  }
  FpElem T, A, B, C, xb, D, E, X3, c8, Y3, Z3, t;
  F.sqr(T, V.Z);
  F.sqr(A, V.X);
  F.sqr(B, V.Y);
  F.sqr(C, B);
  F.add(xb, V.X, B);
  F.sqr(t, xb);
  F.sub(D, t, A);
  F.sub(D, D, C);
  F.dbl(D, D);
  F.add(E, A, A);
  F.add(E, E, A);
  F.sqr(t, T);
  F.add(E, E, t);
  F.sqr(X3, E);
  F.add(t, D, D);
  F.sub(X3, X3, t);
  F.add(c8, C, C);
  F.dbl(c8, c8);
  F.dbl(c8, c8);
  F.sub(t, D, X3);
  F.mul(Y3, E, t);
  F.sub(Y3, Y3, c8);
  F.mul(t, V.Y, V.Z);
  F.add(Z3, t, t);
  Line line;
  F.mul(t, E, V.X);
  FpElem b2;
  F.add(b2, B, B);
  F.sub(line.c0, t, b2);
  F.mul(line.c1, E, T);
  F.mul(line.c2, Z3, T);
  V = Jac{X3, Y3, Z3};
  return line;
}

// Mixed addition V ← V + P (P affine), returning the line through V and P
// scaled by Z₃: real = (R·xp - yp·Z₃) + R·xq, imag = Z₃·yq.
Line add_step(const FpCtx& F, Jac& V, const FpElem& px, const FpElem& py) {
  if (F.is_zero(V.Z)) {
    V = Jac{px, py, F.one()};
    return unit_line(F);
  }
  FpElem T, U2, S2, H, R, t, t2;
  F.sqr(T, V.Z);
  F.mul(U2, px, T);
  F.mul(t, T, V.Z);
  F.mul(S2, py, t);
  F.sub(H, U2, V.X);
  F.sub(R, S2, V.Y);
  if (F.is_zero(H)) {
    if (F.is_zero(R)) return dbl_step(F, V);  // V == P: tangent
    // V == -P: vertical line, sum is the point at infinity.
    V = Jac{F.one(), F.one(), F.zero()};
    return unit_line(F);
  }
  FpElem H2, H3, XH2, X3, Y3, Z3;
  F.sqr(H2, H);
  F.mul(H3, H, H2);
  F.mul(XH2, V.X, H2);
  F.sqr(X3, R);
  F.sub(X3, X3, H3);
  F.add(t, XH2, XH2);
  F.sub(X3, X3, t);
  F.sub(t, XH2, X3);
  F.mul(Y3, R, t);
  F.mul(t2, V.Y, H3);
  F.sub(Y3, Y3, t2);
  F.mul(Z3, V.Z, H);
  Line line;
  F.mul(t, R, px);
  F.mul(t2, py, Z3);
  F.sub(line.c0, t, t2);
  line.c1 = R;
  line.c2 = Z3;
  V = Jac{X3, Y3, Z3};
  return line;
}

// Lane-batch collector for independent F_p² products: queues fp2_mul /
// fp2_sqr / raw F_p mul ops, then flush() runs the linear pre-adds, pushes
// every Montgomery product through FpCtx::mul_batch in one call (SIMD
// lane-filled when the dispatch level allows), and applies the linear
// post-ops. The mul/sqr shapes mirror fp2_mul/fp2_sqr exactly, and the
// Montgomery products of reduced operands are canonical, so batched
// results are bit-identical to running the queued ops sequentially.
//
// Products land in a chunk-local scratch and an op's destination is only
// written after its own reads, so a destination may alias that op's own
// inputs (acc² in place is fine). A destination must NOT alias another
// queued op's operand, and two ops must not share a destination within
// one flush — ops execute chunk-by-chunk, not as one simultaneous step.
// Queued operands must stay live until flush() returns.
class Fp2Batch {
 public:
  explicit Fp2Batch(const FpCtx& F) : F_(F) {}

  void reserve(std::size_t muls, std::size_t sqrs, std::size_t fmuls) {
    mul_.reserve(muls);
    sqr_.reserve(sqrs);
    fp_.reserve(fmuls);
  }

  void mul(Fp2Elem& r, const Fp2Elem& x, const Fp2Elem& y) {
    mul_.push_back(MulOp{&r, &x, &y});
  }
  void sqr(Fp2Elem& r, const Fp2Elem& x) { sqr_.push_back(SqrOp{&r, &x}); }
  /// Raw F_p product r = a·b (Montgomery) on limbs()-limb arrays. r must
  /// be distinct scratch.
  void fmul(limb::Limb* r, const limb::Limb* a, const limb::Limb* b) {
    fp_.push_back(simd::MontJob{r, a, b});
  }

  // One chunk at a time: pre-adds into a compact stack scratch (stride =
  // the context's actual limb count, not kMaxFpLimbs — a full-width MulScr
  // would stream 1.25 KB per product through the cache at pairing widths),
  // one lane-batched kernel call on the chunk, then the post-ops, while
  // the scratch is still L1-resident. Chunks are as-if simultaneous too:
  // every queued destination is written only in its own chunk's post
  // phase, and flush order across chunks preserves queue order for the
  // scalar fallback.
  void flush() {
    const std::size_t n = F_.limbs();
    // Scratch layout per mul op: [sx sy ac bd cross]; per sqr: [s d t2 ra].
    // chunk_ops keeps the used prefix (5·n limbs per op) within this 32 KB
    // block at every width.
    limb::Limb scr[kChunkOps * limb::kMaxFpLimbs];
    simd::MontJob raw[3 * kChunkOps];
    for (std::size_t base = 0; base < mul_.size(); base += chunk_ops(n)) {
      const std::size_t c = std::min(chunk_ops(n), mul_.size() - base);
      std::size_t jn = 0;
      for (std::size_t i = 0; i < c; ++i) {
        const MulOp& op = mul_[base + i];
        limb::Limb* s = scr + i * 5 * n;
        F_.add_raw(s, op.x->a.v.data(), op.x->b.v.data());      // sx
        F_.add_raw(s + n, op.y->a.v.data(), op.y->b.v.data());  // sy
        raw[jn++] = simd::MontJob{s + 2 * n, op.x->a.v.data(),
                                  op.y->a.v.data()};            // ac
        raw[jn++] = simd::MontJob{s + 3 * n, op.x->b.v.data(),
                                  op.y->b.v.data()};            // bd
        raw[jn++] = simd::MontJob{s + 4 * n, s, s + n};         // cross
      }
      F_.mul_batch_raw(raw, jn);
      for (std::size_t i = 0; i < c; ++i) {
        const MulOp& op = mul_[base + i];
        limb::Limb* s = scr + i * 5 * n;
        F_.sub_raw(op.r->a.v.data(), s + 2 * n, s + 3 * n);
        F_.sub_raw(s + 4 * n, s + 4 * n, s + 2 * n);
        F_.sub_raw(op.r->b.v.data(), s + 4 * n, s + 3 * n);
      }
    }
    for (std::size_t base = 0; base < sqr_.size(); base += chunk_ops(n)) {
      const std::size_t c = std::min(chunk_ops(n), sqr_.size() - base);
      std::size_t jn = 0;
      for (std::size_t i = 0; i < c; ++i) {
        const SqrOp& op = sqr_[base + i];
        limb::Limb* s = scr + i * 4 * n;
        F_.add_raw(s, op.x->a.v.data(), op.x->b.v.data());          // s
        F_.sub_raw(s + n, op.x->a.v.data(), op.x->b.v.data());      // d
        raw[jn++] = simd::MontJob{s + 2 * n, op.x->a.v.data(),
                                  op.x->b.v.data()};                // t2
        raw[jn++] = simd::MontJob{s + 3 * n, s, s + n};             // ra
      }
      F_.mul_batch_raw(raw, jn);
      for (std::size_t i = 0; i < c; ++i) {
        const SqrOp& op = sqr_[base + i];
        const limb::Limb* s = scr + i * 4 * n;
        std::copy(s + 3 * n, s + 4 * n, op.r->a.v.begin());
        F_.add_raw(op.r->b.v.data(), s + 2 * n, s + 2 * n);
      }
    }
    F_.mul_batch_raw(fp_.data(), fp_.size());
    mul_.clear();
    sqr_.clear();
    fp_.clear();
  }

 private:
  struct MulOp {
    Fp2Elem* r;
    const Fp2Elem* x;
    const Fp2Elem* y;
  };
  struct SqrOp {
    Fp2Elem* r;
    const Fp2Elem* x;
  };
  // Chunk budget: 128 ops at pairing widths, scaled down so the scratch
  // block (5·n limbs per op) stays within the fixed stack buffer for wide
  // moduli.
  static constexpr std::size_t kChunkOps = 128;
  static std::size_t chunk_ops(std::size_t n) {
    return std::max<std::size_t>(
        1, std::min(kChunkOps, kChunkOps * limb::kMaxFpLimbs / (5 * n)));
  }
  const FpCtx& F_;
  std::vector<MulOp> mul_;
  std::vector<SqrOp> sqr_;
  std::vector<simd::MontJob> fp_;
};

// Reduce every bucket to the product of its items, in place: balanced
// trees, each level batched across all buckets, every product written
// over its left operand (items are scratch the caller owns, and no item
// sits in two pairs, so this meets Fp2Batch's aliasing rule). Leaves the
// product in *bucket[0]. Products of reduced operands are canonical, so
// the tree shape changes nothing bit-wise.
void fold_buckets(Fp2Batch& batch,
                  std::vector<std::vector<Fp2Elem*>>& buckets) {
  bool more = true;
  while (more) {
    more = false;
    for (auto& b : buckets) {
      if (b.size() < 2) continue;
      std::size_t out = 0;
      std::size_t i = 0;
      for (; i + 1 < b.size(); i += 2) {
        batch.mul(*b[i], *b[i], *b[i + 1]);
        b[out++] = b[i];
      }
      if (i < b.size()) b[out++] = b[i];
      b.resize(out);
      if (out > 1) more = true;
    }
    batch.flush();
  }
}

std::vector<Fp2> leave_mont(const FpCtx& F, const std::vector<Fp2Elem>& v) {
  std::vector<Fp2> out;
  out.reserve(v.size());
  for (const Fp2Elem& x : v) {
    out.push_back(Fp2{F.from_mont(x.a), F.from_mont(x.b)});
  }
  return out;
}

// Lucas ladders in step: for every j < m, from (V_0, V_1) = (2, v1[j]) to
// (V_e, V_{e+1}) in (a[j], b[j]) over the bits of e, by
//     V_{2k} = V_k² - 2,   V_{2k+1} = V_k·V_{k+1} - V_1.
// For a norm-1 z with 2·Re z = V_1 this is the trace V_k = z^k + z^{-k}.
// Each bit is one mul_batch_raw of 2m jobs; both bit cases share the
// product job and differ only in the squared operand. Every array holds m
// residues at stride limbs(); prod and sq are scratch.
void lucas_ladders(const FpCtx& F, const Bigint& e, std::size_t m,
                   const limb::Limb* v1, limb::Limb* a, limb::Limb* b,
                   limb::Limb* prod, limb::Limb* sq) {
  const std::size_t n = F.limbs();
  FpElem two;
  F.dbl(two, F.one());
  std::vector<simd::MontJob> jobs0(2 * m), jobs1(2 * m);
  for (std::size_t j = 0; j < m; ++j) {
    limb::Limb* aj = a + j * n;
    limb::Limb* bj = b + j * n;
    std::copy(two.v.begin(), two.v.begin() + static_cast<std::ptrdiff_t>(n),
              aj);
    std::copy(v1 + j * n, v1 + (j + 1) * n, bj);
    jobs0[2 * j] = jobs1[2 * j] = {prod + j * n, aj, bj};
    jobs0[2 * j + 1] = {sq + j * n, aj, aj};
    jobs1[2 * j + 1] = {sq + j * n, bj, bj};
  }
  for (std::size_t i = e.bit_length(); i-- > 0;) {
    const bool bit = e.bit(i);
    F.mul_batch_raw((bit ? jobs1 : jobs0).data(), 2 * m);
    for (std::size_t j = 0; j < m; ++j) {
      limb::Limb* sq_to = (bit ? b : a) + j * n;
      limb::Limb* prod_to = (bit ? a : b) + j * n;
      F.sub_raw(sq_to, sq + j * n, two.v.data());
      F.sub_raw(prod_to, prod + j * n, v1 + j * n);
    }
  }
}

// f ↦ f^{(p²-1)/r} = z^h with z = conj(f)/f (Frobenius is conjugation in
// F_p[i]), for every f[k] in place and all of them in step.
//
// z has norm 1, so z⁻¹ = conj(z) and z^j is pinned by its trace
// V_j = z^j + z^{-j} = 2·Re(z^j), which follows the Lucas ladder
//     V_{2j} = V_j² - 2,   V_{2j+1} = V_j·V_{j+1} - V_1
// — one F_p product and one square per bit of h, against an F_p² square
// (and often a multiply) for square-and-multiply. For f = x + y·i with
// N = x² + y²: Re z = (x² - y²)/N and Im z = -2xy/N, and z^{h+1} = z^h·z
// gives Im z^h = (V_1·V_h - 2·V_{h+1}) / (4·Im z), so
//     z^h = V_h/2 + i·(2·V_{h+1} - V_1·V_h)·N/(8xy).
// Every ladder walks the same bits of h, so each bit is one mul_batch of
// 2K jobs, and every 1/N and 1/(8xy) comes from one fp_inv of ∏ N·8xy
// (Montgomery's trick). xy = 0 means z = ±1 (y = 0: f ∈ F_p and z = 1;
// x = 0: z = -1), exact without a ladder. N = 0 only for f = 0 (-1 is a
// non-residue), which has no inverse: std::domain_error.
void final_exp_batch(const FpCtx& F, const Bigint& h,
                     std::vector<Fp2Elem>& f) {
  std::vector<std::size_t> gen;  // outputs that take the ladder
  for (std::size_t k = 0; k < f.size(); ++k) {
    const bool x0 = F.is_zero(f[k].a);
    const bool y0 = F.is_zero(f[k].b);
    if (x0 && y0) throw std::domain_error("pairing: zero element");
    if (x0 || y0) {
      FpElem re = F.one();
      if (x0 && h.bit(0)) F.neg(re, re);  // (-1)^h
      f[k] = Fp2Elem{re, F.zero()};
    } else {
      gen.push_back(k);
    }
  }
  const std::size_t m = gen.size();
  if (m == 0) return;

  // Per-output state in compact limbs()-stride slots; every batched phase
  // queues raw jobs and runs them as one mul_batch.
  const std::size_t n = F.limbs();
  enum Slot : std::size_t {
    kXX, kYY, kXY, kNorm, kDen, kC, kNsq, kPre, kInvc, kV1, kNdiv,
    kA, kB, kProd, kSq, kSlots
  };
  std::vector<limb::Limb> buf(kSlots * m * n);
  const auto at = [&](Slot slot, std::size_t j) {
    return buf.data() + (slot * m + j) * n;
  };
  std::vector<simd::MontJob> jobs;
  jobs.reserve(2 * m);
  const auto run = [&] {
    F.mul_batch_raw(jobs.data(), jobs.size());
    jobs.clear();
  };
  const auto mul1 = [&](limb::Limb* r, const limb::Limb* a,
                        const limb::Limb* b) {
    const simd::MontJob job{r, a, b};
    F.mul_batch_raw(&job, 1);
  };

  for (std::size_t j = 0; j < m; ++j) {
    const limb::Limb* x = f[gen[j]].a.v.data();
    const limb::Limb* y = f[gen[j]].b.v.data();
    jobs.push_back({at(kXX, j), x, x});
    jobs.push_back({at(kYY, j), y, y});
    jobs.push_back({at(kXY, j), x, y});
  }
  run();
  for (std::size_t j = 0; j < m; ++j) {
    F.add_raw(at(kNorm, j), at(kXX, j), at(kYY, j));
    F.add_raw(at(kDen, j), at(kXY, j), at(kXY, j));
    F.add_raw(at(kDen, j), at(kDen, j), at(kDen, j));
    F.add_raw(at(kDen, j), at(kDen, j), at(kDen, j));  // 8xy
    jobs.push_back({at(kC, j), at(kNorm, j), at(kDen, j)});
    jobs.push_back({at(kNsq, j), at(kNorm, j), at(kNorm, j)});
  }
  run();

  // Montgomery's trick: prefix products, one inversion, then peel.
  std::copy(at(kC, 0), at(kC, 0) + n, at(kPre, 0));
  for (std::size_t j = 1; j < m; ++j) {
    mul1(at(kPre, j), at(kPre, j - 1), at(kC, j));
  }
  FpElem total;
  std::copy(at(kPre, m - 1), at(kPre, m - 1) + n, total.v.begin());
  FpElem inv = F.to_mont(fp_inv(F.from_mont(total), F.modulus()));
  for (std::size_t j = m; j-- > 1;) {
    mul1(at(kInvc, j), inv.v.data(), at(kPre, j - 1));
    mul1(inv.v.data(), inv.v.data(), at(kC, j));
  }
  std::copy(inv.v.begin(), inv.v.begin() + static_cast<std::ptrdiff_t>(n),
            at(kInvc, 0));

  // 1/N = invc·8xy (into the spent xy slot), N/(8xy) = invc·N², and
  // V_1 = 2(x² - y²)/N.
  for (std::size_t j = 0; j < m; ++j) {
    jobs.push_back({at(kXY, j), at(kInvc, j), at(kDen, j)});
    jobs.push_back({at(kNdiv, j), at(kInvc, j), at(kNsq, j)});
  }
  run();
  for (std::size_t j = 0; j < m; ++j) {
    F.sub_raw(at(kXX, j), at(kXX, j), at(kYY, j));
    F.add_raw(at(kXX, j), at(kXX, j), at(kXX, j));
    jobs.push_back({at(kV1, j), at(kXX, j), at(kXY, j)});
  }
  run();

  // Lockstep ladders from (V_0, V_1) = (2, V_1) to (V_h, V_{h+1}) in
  // (A, B).
  lucas_ladders(F, h, m, at(kV1, 0), at(kA, 0), at(kB, 0), at(kProd, 0),
                at(kSq, 0));

  // z^h = V_h/2 + i·(2·V_{h+1} - V_1·V_h)·N/(8xy).
  const FpElem half = F.to_mont((F.modulus() + Bigint(1)) / Bigint(2));
  for (std::size_t j = 0; j < m; ++j) {
    jobs.push_back({f[gen[j]].a.v.data(), at(kA, j), half.v.data()});
    jobs.push_back({at(kProd, j), at(kV1, j), at(kA, j)});
  }
  run();
  for (std::size_t j = 0; j < m; ++j) {
    F.add_raw(at(kSq, j), at(kB, j), at(kB, j));
    F.sub_raw(at(kSq, j), at(kSq, j), at(kProd, j));
    jobs.push_back({f[gen[j]].b.v.data(), at(kSq, j), at(kNdiv, j)});
  }
  run();
}

}  // namespace

PairingEngine::PairingEngine(TypeAParams params)
    : params_(std::move(params)), fp_(fp_ctx(params_.p)) {
  // Steps per Miller loop: one doubling per bit below the top, plus one
  // addition per set bit among them. A replayed table must hold exactly
  // this many lines.
  const Bigint& r = params_.r;
  for (std::size_t i = r.bit_length() - 1; i-- > 0;) {
    miller_steps_ += r.bit(i) ? 2 : 1;
  }
}

PairingPrecomp PairingEngine::precompute(const EcPoint& P) const {
  if (!ec_on_curve(P, params_.p)) {
    throw std::invalid_argument("PairingEngine: precomp point not on curve");
  }
  if (!typea_in_subgroup(params_, {P})) {
    throw std::invalid_argument("PairingEngine: precomp point not in G");
  }
  PairingPrecomp pre;
  pre.point_ = P;
  pre.built_ = true;
  if (P.infinity) return pre;  // every pairing against it is 1

  // The same doubling/addition steps the live loop in miller_loop runs,
  // recorded as line coefficients instead of evaluated.
  const FpCtx& F = *fp_;
  const std::size_t n = F.limbs();
  pre.coeffs_.reserve(3 * n * miller_steps_);
  const FpElem px = F.to_mont(P.x);
  const FpElem py = F.to_mont(P.y);
  Jac V{px, py, F.one()};
  const auto record = [&](const Line& line) {
    for (const FpElem* c : {&line.c0, &line.c1, &line.c2}) {
      pre.coeffs_.insert(pre.coeffs_.end(), c->v.begin(),
                         c->v.begin() + static_cast<std::ptrdiff_t>(n));
    }
  };
  const Bigint& r = params_.r;
  for (std::size_t i = r.bit_length() - 1; i-- > 0;) {
    record(dbl_step(F, V));
    if (r.bit(i)) record(add_step(F, V, px, py));
  }
  return pre;
}

Fp2 PairingEngine::pair(const EcPoint& P, const EcPoint& Q) const {
  static obs::Histogram& obs_lat = obs::histogram("crypto.pairing");
  obs::ScopedTimer obs_timer(obs_lat);
  const std::vector<PairingTerm> one{
      PairingTerm{nullptr, P, Q, Bigint(1), false}};
  return evaluate(&one, 1)[0];
}

Fp2 PairingEngine::pair(const PairingPrecomp& pre, const EcPoint& Q) const {
  static obs::Histogram& obs_lat = obs::histogram("crypto.pairing");
  obs::ScopedTimer obs_timer(obs_lat);
  const std::vector<PairingTerm> one{
      PairingTerm{&pre, EcPoint::at_infinity(), Q, Bigint(1), false}};
  return evaluate(&one, 1)[0];
}

Fp2 PairingEngine::pair_product(const std::vector<PairingTerm>& terms) const {
  static obs::Histogram& obs_lat = obs::histogram("crypto.pairing.product");
  obs::ScopedTimer obs_timer(obs_lat);
  return evaluate(&terms, 1)[0];
}

std::vector<Fp2> PairingEngine::pair_products(
    const std::vector<std::vector<PairingTerm>>& products) const {
  static obs::Histogram& obs_lat = obs::histogram("crypto.pairing.products");
  obs::ScopedTimer obs_timer(obs_lat);
  return evaluate(products.data(), products.size());
}

std::vector<Fp2> PairingEngine::miller_values(
    const std::vector<std::vector<PairingTerm>>& products) const {
  std::vector<Fp2Elem> f;
  miller_loop(products.data(), products.size(), f);
  return leave_mont(*fp_, f);
}

std::vector<Fp2> PairingEngine::final_exp(const std::vector<Fp2>& f) const {
  const FpCtx& F = *fp_;
  std::vector<Fp2Elem> v;
  v.reserve(f.size());
  for (const Fp2& x : f) v.push_back(Fp2Elem{F.to_mont(x.a), F.to_mont(x.b)});
  final_exp_batch(F, params_.h, v);
  return leave_mont(F, v);
}

std::vector<Fp2> PairingEngine::evaluate(
    const std::vector<PairingTerm>* products, std::size_t count) const {
  std::vector<Fp2Elem> f;
  // A product with no non-trivial factor holds f = 1, which the final
  // exponentiation maps to 1 without a ladder; only the others count.
  counters().finalexp.add(miller_loop(products, count, f));
  final_exp_batch(*fp_, params_.h, f);
  return leave_mont(*fp_, f);
}

std::size_t PairingEngine::miller_loop(
    const std::vector<PairingTerm>* products, std::size_t count,
    std::vector<Fp2Elem>& f) const {
  PairingCounters& ctr = counters();
  const Bigint& p = params_.p;
  const FpCtx& F = *fp_;
  const std::size_t n = F.limbs();
  // In-flight state of one non-trivial factor: where its lines come from
  // (a table cursor, or a live Jacobian loop in `lives`), whether it is
  // inverted, and which accumulator it feeds. φ(Q)'s Montgomery
  // coordinates sit in `q` (xq‖yq, n limbs each) — only the live loops
  // carry full-width state, so a wide batch of table replays stays small.
  struct Active {
    const std::uint64_t* table = nullptr;  // next recorded line: c0‖c1‖c2
    std::size_t live = 0;                  // index into lives (no table)
    bool conj = false;
    std::size_t group = 0;
  };
  struct Live {
    Jac V;
    FpElem px, py;
  };
  // One accumulator per (product, exponent) group, raised to its exponent
  // after the loop (unit exponents skip the ladder). Factors sharing an
  // exponent within a product (the batch-verify shape, where one δ_j
  // covers a whole verification equation) share squarings too.
  std::vector<Active> active;
  std::vector<Live> lives;
  std::vector<limb::Limb> q;
  std::vector<Fp2Elem> accs;
  std::vector<std::size_t> group_out;  // product of accs[g]
  std::vector<Bigint> group_exps;      // exponent of accs[g]
  std::map<std::pair<std::size_t, Bytes>, std::size_t> groups;
  std::size_t live = 0;  // products with a non-trivial factor

  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t groups_before = accs.size();
    for (const PairingTerm& term : products[k]) {
      ctr.calls.add();
      if (term.pre != nullptr && term.pre->empty()) {
        throw std::invalid_argument("pairing: precomp table not built");
      }
      const EcPoint& P = term.pre != nullptr ? term.pre->point() : term.P;
      if (term.pre == nullptr && !ec_on_curve(P, p)) {
        throw std::invalid_argument("pairing: point not on curve");
      }
      if (!ec_on_curve(term.Q, p)) {
        throw std::invalid_argument("pairing: point not on curve");
      }
      if (term.pre != nullptr && !P.infinity &&
          term.pre->coeffs_.size() != 3 * n * miller_steps_) {
        throw std::invalid_argument(
            "pairing: precomp table built for other parameters");
      }
      const Bigint e = term.exp.mod(params_.r);
      if (e.is_zero() || P.infinity || term.Q.infinity) continue;  // 1

      Active a;
      a.conj = term.invert;
      for (const Bigint* c : {&term.Q.x, &term.Q.y}) {
        const FpElem v = F.to_mont(*c);
        q.insert(q.end(), v.v.begin(),
                 v.v.begin() + static_cast<std::ptrdiff_t>(n));
      }
      if (term.pre == nullptr) {
        Live l;
        l.px = F.to_mont(P.x);
        l.py = F.to_mont(P.y);
        l.V = Jac{l.px, l.py, F.one()};
        a.live = lives.size();
        lives.push_back(l);
      } else {
        a.table = term.pre->coeffs_.data();
        ctr.precomp_hits.add();
      }
      const auto [it, fresh] =
          groups.try_emplace({k, e.to_bytes_be()}, accs.size());
      if (fresh) {
        accs.push_back(Fp2Elem{F.one(), F.zero()});
        group_out.push_back(k);
        group_exps.push_back(e);
      }
      a.group = it->second;
      ctr.miller.add();
      active.push_back(a);
    }
    if (accs.size() > groups_before) ++live;
  }

  f.assign(count, Fp2Elem{F.one(), F.zero()});
  if (active.empty()) return 0;

  // The whole loop runs through one Fp2Batch so every independent
  // Montgomery product in a phase fills SIMD lanes: the |accs| shared
  // squarings and the 2·|active| line evaluations of a bit go out as one
  // batch, and the per-group absorb products fold as balanced trees
  // batched across groups level by level (see fold_buckets).
  Fp2Batch batch(F);
  batch.reserve(active.size(), accs.size(), 2 * active.size());
  std::vector<const limb::Limb*> line(active.size());  // c0‖c1‖c2 now
  std::vector<limb::Limb> tline(active.size() * n);
  std::vector<Fp2Elem> vline(active.size());
  std::vector<std::vector<Fp2Elem*>> gitems(accs.size());

  // Point every active at its next line: the table's next record, or the
  // live loop's step (doubling, or addition when `add`) packed into its
  // n-limb-stride slot of live_lines.
  std::vector<limb::Limb> live_lines(lives.size() * 3 * n);
  const auto next_lines = [&](bool add) {
    for (std::size_t j = 0; j < active.size(); ++j) {
      Active& a = active[j];
      if (a.table != nullptr) {
        line[j] = a.table;
        a.table += 3 * n;
        continue;
      }
      Live& l = lives[a.live];
      const Line ln = add ? add_step(F, l.V, l.px, l.py) : dbl_step(F, l.V);
      limb::Limb* dst = live_lines.data() + a.live * 3 * n;
      for (const FpElem* c : {&ln.c0, &ln.c1, &ln.c2}) {
        dst = std::copy(c->v.begin(),
                        c->v.begin() + static_cast<std::ptrdiff_t>(n), dst);
      }
      line[j] = live_lines.data() + a.live * 3 * n;
    }
  };
  // Evaluate every active's current line at φ(Q) in one flush (plus any
  // fp2 ops already queued by the caller), leaving v_i in vline[i]:
  // v = (c0 + c1·xq) + (c2·yq)·i, conjugated for an inverted factor.
  const auto eval_lines = [&]() {
    for (std::size_t i = 0; i < active.size(); ++i) {
      const limb::Limb* xq = q.data() + 2 * i * n;
      batch.fmul(tline.data() + i * n, line[i] + n, xq);
      batch.fmul(vline[i].b.v.data(), line[i] + 2 * n, xq + n);
    }
    batch.flush();
    for (std::size_t i = 0; i < active.size(); ++i) {
      F.add_raw(vline[i].a.v.data(), line[i], tline.data() + i * n);
      if (active[i].conj) F.neg(vline[i].b, vline[i].b);
    }
  };
  // accs[g] *= Π v_i over the group's actives.
  const auto fold_groups = [&]() {
    for (std::size_t g = 0; g < gitems.size(); ++g) {
      gitems[g].assign(1, &accs[g]);
    }
    for (std::size_t i = 0; i < active.size(); ++i) {
      gitems[active[i].group].push_back(&vline[i]);
    }
    fold_buckets(batch, gitems);
    for (std::size_t g = 0; g < gitems.size(); ++g) {
      if (gitems[g][0] != &accs[g]) accs[g] = *gitems[g][0];
    }
  };

  const Bigint& r = params_.r;
  for (std::size_t i = r.bit_length() - 1; i-- > 0;) {
    for (Fp2Elem& acc : accs) batch.sqr(acc, acc);
    next_lines(false);
    eval_lines();  // flushes the squarings alongside the line products
    fold_groups();
    if (r.bit(i)) {
      next_lines(true);
      eval_lines();
      fold_groups();
    }
  }

  // Group-exponent ladders, lockstep across the non-unit groups: starting
  // every ladder at one and walking down from the longest exponent is
  // exactly fp2_pow's schedule (leading squarings of one are exact), so
  // each pw[g] is bit-identical to a sequential fp2_pow.
  std::vector<Fp2Elem> pw(accs.size(), Fp2Elem{F.one(), F.zero()});
  std::size_t maxb = 0;
  for (std::size_t g = 0; g < accs.size(); ++g) {
    if (group_exps[g].is_one()) {
      pw[g] = accs[g];
    } else {
      maxb = std::max(maxb, group_exps[g].bit_length());
    }
  }
  for (std::size_t i = maxb; i-- > 0;) {
    for (std::size_t g = 0; g < pw.size(); ++g) {
      if (!group_exps[g].is_one()) batch.sqr(pw[g], pw[g]);
    }
    batch.flush();
    for (std::size_t g = 0; g < pw.size(); ++g) {
      if (!group_exps[g].is_one() && group_exps[g].bit(i)) {
        batch.mul(pw[g], pw[g], accs[g]);
      }
    }
    batch.flush();
  }

  // f[k] = Π pw[g] over product k's groups, one batched tree per product.
  std::vector<std::vector<Fp2Elem*>> outs(count);
  for (std::size_t g = 0; g < pw.size(); ++g) {
    outs[group_out[g]].push_back(&pw[g]);
  }
  fold_buckets(batch, outs);
  for (std::size_t k = 0; k < count; ++k) {
    if (!outs[k].empty()) f[k] = *outs[k][0];
  }
  return live;
}

Fp2 PairingEngine::gt_pow(const Fp2& x, const Bigint& e) const {
  if (e.is_negative()) {
    throw std::invalid_argument("PairingEngine::gt_pow: negative exponent");
  }
  const FpCtx& F = *fp_;
  const Fp2Elem xm{F.to_mont(x.a), F.to_mont(x.b)};
  Fp2Elem v;
  fp2_pow(F, v, xm, e);
  return Fp2{F.from_mont(v.a), F.from_mont(v.b)};
}

std::vector<bool> PairingEngine::gt_contains_many(
    const std::vector<Fp2>& xs) const {
  const FpCtx& F = *fp_;
  const std::size_t n = F.limbs();
  const std::size_t k = xs.size();
  std::vector<bool> out(k, false);
  if (k == 0) return out;

  // Norm test, lane-batched: a² and b² for every element.
  std::vector<limb::Limb> sq(2 * k * n);
  std::vector<Fp2Elem> x(k);
  std::vector<simd::MontJob> jobs;
  jobs.reserve(2 * k);
  for (std::size_t j = 0; j < k; ++j) {
    x[j] = Fp2Elem{F.to_mont(xs[j].a), F.to_mont(xs[j].b)};
    jobs.push_back({sq.data() + 2 * j * n, x[j].a.v.data(), x[j].a.v.data()});
    jobs.push_back(
        {sq.data() + (2 * j + 1) * n, x[j].b.v.data(), x[j].b.v.data()});
  }
  F.mul_batch_raw(jobs.data(), jobs.size());

  // Norm-1 elements go on to the ladder with V_1 = 2a, compacted into
  // the first m slots of v1.
  std::vector<std::size_t> live;
  std::vector<limb::Limb> v1(k * n);
  for (std::size_t j = 0; j < k; ++j) {
    limb::Limb* norm = sq.data() + 2 * j * n;
    F.add_raw(norm, norm, norm + n);
    if (!std::equal(norm, norm + n, F.one().v.begin())) continue;
    F.add_raw(v1.data() + live.size() * n, x[j].a.v.data(), x[j].a.v.data());
    live.push_back(j);
  }
  const std::size_t m = live.size();
  if (m == 0) return out;
  std::vector<limb::Limb> state(4 * m * n);
  limb::Limb* a = state.data();
  lucas_ladders(F, params_.r, m, v1.data(), a, a + m * n, a + 2 * m * n,
                a + 3 * m * n);
  FpElem two;
  F.dbl(two, F.one());
  for (std::size_t j = 0; j < m; ++j) {
    out[live[j]] = std::equal(a + j * n, a + (j + 1) * n, two.v.begin());
  }
  return out;
}

std::vector<Fp2> PairingEngine::gt_pow2_many(
    const std::vector<GtPow2>& jobs) const {
  const FpCtx& F = *fp_;
  const std::size_t k = jobs.size();
  std::vector<Fp2Elem> x1(k), x2(k), x12(k);
  std::vector<Fp2Elem> acc(k, Fp2Elem{F.one(), F.zero()});
  std::vector<std::size_t> bits(k);
  std::size_t maxb = 0;
  Fp2Batch batch(F);
  batch.reserve(k, k, 0);
  for (std::size_t j = 0; j < k; ++j) {
    const GtPow2& job = jobs[j];
    if (job.e1.is_negative() || job.e2.is_negative()) {
      throw std::invalid_argument(
          "PairingEngine::gt_pow2_many: negative exponent");
    }
    x1[j] = Fp2Elem{F.to_mont(job.x1.a), F.to_mont(job.x1.b)};
    x2[j] = Fp2Elem{F.to_mont(job.x2.a), F.to_mont(job.x2.b)};
    batch.mul(x12[j], x1[j], x2[j]);
    bits[j] = std::max(job.e1.bit_length(), job.e2.bit_length());
    maxb = std::max(maxb, bits[j]);
  }
  batch.flush();
  // One joint Shamir chain per job, all in step from the longest exponent
  // down. A chain joins at its own top bit: the squarings of one it skips
  // are exact, so each acc[j] is bit-identical to the job run alone.
  for (std::size_t i = maxb; i-- > 0;) {
    for (std::size_t j = 0; j < k; ++j) {
      if (i < bits[j]) batch.sqr(acc[j], acc[j]);
    }
    batch.flush();
    for (std::size_t j = 0; j < k; ++j) {
      const bool b1 = jobs[j].e1.bit(i);
      const bool b2 = jobs[j].e2.bit(i);
      if (b1 || b2) {
        batch.mul(acc[j], acc[j], b1 && b2 ? x12[j] : b1 ? x1[j] : x2[j]);
      }
    }
    batch.flush();
  }
  return leave_mont(F, acc);
}

}  // namespace ppms
