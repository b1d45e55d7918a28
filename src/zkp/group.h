// Type-erased prime-order group interface for the zero-knowledge proofs.
//
// The paper's proofs run in three very different groups — subgroups of
// Z*_p along the Cunningham tower, the pairing's curve group, and the
// pairing target group GT ⊂ F_p² — but every sigma protocol only needs the
// abstract operations below. Elements travel as canonical byte strings so
// proofs can be serialized and fed to Fiat-Shamir transcripts uniformly.
#pragma once

#include <memory>
#include <vector>

#include "bigint/bigint.h"
#include "pairing/pipeline.h"
#include "pairing/tate.h"
#include "pairing/typea.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace ppms {

class FpCtx;
class FixedBasePow;

class Group {
 public:
  virtual ~Group() = default;

  /// Prime order of the group.
  virtual const Bigint& order() const = 0;

  /// The identity element.
  virtual Bytes identity() const = 0;

  /// Group operation a · b. Inputs must be valid elements.
  virtual Bytes op(const Bytes& a, const Bytes& b) const = 0;

  /// base^exp; negative exponents are reduced modulo the order.
  virtual Bytes pow(const Bytes& base, const Bigint& exp) const = 0;

  /// Simultaneous double exponentiation base1^e1 · base2^e2 (Shamir/Straus
  /// interleaving in ZnGroup and GtGroup: one shared squaring chain instead
  /// of two). This is the shape every sigma-protocol verification equation
  /// reduces to; the default, which EcGroup uses, is two pows and one op.
  virtual Bytes pow2(const Bytes& base1, const Bigint& e1,
                     const Bytes& base2, const Bigint& e2) const {
    return op(pow(base1, e1), pow(base2, e2));
  }

  /// One pow2(base1, e1, base2, e2) per job, in job order.
  struct Pow2Job {
    const Bytes* base1;
    Bigint e1;
    const Bytes* base2;
    Bigint e2;
  };
  /// Every job's pow2. GtGroup runs all the chains in step on the lane
  /// kernels; the default runs the jobs one at a time.
  virtual std::vector<Bytes> pow2_many(const std::vector<Pow2Job>& jobs) const;

  /// Inverse element.
  virtual Bytes inv(const Bytes& a) const = 0;

  /// Full membership check: well-formed encoding AND order divides the
  /// group order. Verifiers call this on every received element.
  virtual bool contains(const Bytes& a) const = 0;

  /// contains() of every element, in order. GtGroup decides the whole
  /// batch in one lockstep pass; the default checks one at a time.
  virtual std::vector<bool> contains_many(
      const std::vector<const Bytes*>& as) const;

  /// Domain-separation bytes identifying the concrete group (folded into
  /// every transcript so proofs cannot be replayed across groups).
  virtual Bytes describe() const = 0;
};

/// Prime-order subgroup of Z*_modulus. Elements are fixed-width big-endian
/// integers in [1, modulus).
class ZnGroup final : public Group {
 public:
  /// `generator` must have exact order `order` (prime) in Z*_modulus; this
  /// is checked and std::invalid_argument thrown otherwise.
  ZnGroup(Bigint modulus, Bigint order, Bigint generator);

  /// The subgroup of quadratic residues of Z*_p for p = 2q + 1 (p, q
  /// prime) — the natural group at each level of the Cunningham tower.
  static ZnGroup quadratic_residues(const Bigint& p, SecureRandom& rng);

  const Bigint& modulus() const { return modulus_; }
  const Bigint& generator_value() const { return generator_; }
  Bytes generator() const { return encode(generator_); }

  Bytes encode(const Bigint& x) const;
  Bigint decode(const Bytes& a) const;

  /// generator^exp through a fixed-base window table (4-bit windows in
  /// the Montgomery domain), built lazily on first call and shared by
  /// copies made afterwards: ~order_bits/4 multiplications and no
  /// squarings per exponentiation, against a square-and-multiply chain
  /// for pow(generator(), exp). Falls back to pow() for even moduli.
  Bytes pow_gen(const Bigint& exp) const;

  const Bigint& order() const override { return order_; }
  Bytes identity() const override;
  Bytes op(const Bytes& a, const Bytes& b) const override;
  Bytes pow(const Bytes& base, const Bigint& exp) const override;
  Bytes pow2(const Bytes& base1, const Bigint& e1, const Bytes& base2,
             const Bigint& e2) const override;
  Bytes inv(const Bytes& a) const override;
  bool contains(const Bytes& a) const override;
  Bytes describe() const override;

 private:
  /// base^exp mod modulus via the held Montgomery context (exp NOT
  /// reduced mod the order — contains() raises to the order itself).
  Bigint pow_raw(const Bigint& base, const Bigint& exp) const;

  Bigint modulus_, order_, generator_;
  std::size_t width_;
  /// Session-lifetime Montgomery context for modulus_ (null when FpCtx
  /// cannot hold it — even or wider than 2048 bits — where modexp falls
  /// back to the window).
  std::shared_ptr<const FpCtx> fp_;
  /// Fixed-base table for generator_, built by the first pow_gen call
  /// (atomic publish; a racing duplicate build is harmless and dropped).
  mutable std::shared_ptr<const FixedBasePow> gen_table_;
};

/// The order-r subgroup of the Type-A curve. Elements use ec_serialize.
class EcGroup final : public Group {
 public:
  explicit EcGroup(TypeAParams params);

  const TypeAParams& params() const { return params_; }
  Bytes generator() const;

  Bytes encode(const EcPoint& pt) const;
  EcPoint decode(const Bytes& a) const;

  const Bigint& order() const override { return params_.r; }
  Bytes identity() const override;
  Bytes op(const Bytes& a, const Bytes& b) const override;
  Bytes pow(const Bytes& base, const Bigint& exp) const override;
  Bytes inv(const Bytes& a) const override;
  bool contains(const Bytes& a) const override;
  Bytes describe() const override;

 private:
  TypeAParams params_;
};

/// The order-r subgroup of F_p²* that the Tate pairing maps into. Elements
/// use fp2_serialize.
class GtGroup final : public Group {
 public:
  /// Throws std::invalid_argument when the pairing engine cannot serve p
  /// (p even, or wider than 2048 bits).
  explicit GtGroup(TypeAParams params);

  const TypeAParams& params() const { return params_; }

  Bytes encode(const Fp2& x) const;
  Fp2 decode(const Bytes& a) const;

  /// The session-lifetime pairing engine backing this group's pairings
  /// and exponentiations.
  const PairingEngine& engine() const { return *engine_; }

  /// ê(P, Q) encoded as a GT element.
  Bytes pair(const EcPoint& P, const EcPoint& Q) const;

  /// ê(pre.point(), Q) via a table built by engine().precompute().
  Bytes pair(const PairingPrecomp& pre, const EcPoint& Q) const;

  /// ∏ ê(P_i, Q_i)^{±e_i} with a single final exponentiation.
  Bytes pair_product(const std::vector<PairingTerm>& terms) const;

  /// One encoded value per product, from one PairingEngine::pair_products
  /// call (one Miller pass, one batched final exponentiation).
  std::vector<Bytes> pair_products(
      const std::vector<std::vector<PairingTerm>>& products) const;

  const Bigint& order() const override { return params_.r; }
  Bytes identity() const override;
  Bytes op(const Bytes& a, const Bytes& b) const override;
  Bytes pow(const Bytes& base, const Bigint& exp) const override;
  /// pow2 and contains are pow2_many and contains_many of one.
  Bytes pow2(const Bytes& base1, const Bigint& e1, const Bytes& base2,
             const Bigint& e2) const override;
  std::vector<Bytes> pow2_many(const std::vector<Pow2Job>& jobs) const override;
  Bytes inv(const Bytes& a) const override;
  bool contains(const Bytes& a) const override;
  /// Elements that decode (canonical, coordinates < p) go through one
  /// PairingEngine::gt_contains_many call; the rest are false.
  std::vector<bool> contains_many(
      const std::vector<const Bytes*>& as) const override;
  Bytes describe() const override;

 private:
  TypeAParams params_;
  /// Shared so copies of the group keep one engine (and its Montgomery
  /// context) per market session.
  std::shared_ptr<const PairingEngine> engine_;
};

}  // namespace ppms
