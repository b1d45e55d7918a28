#include "zkp/group.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bigint/modarith.h"
#include "bigint/montgomery.h"

namespace ppms {

std::vector<Bytes> Group::pow2_many(const std::vector<Pow2Job>& jobs) const {
  std::vector<Bytes> out;
  out.reserve(jobs.size());
  for (const Pow2Job& job : jobs) {
    out.push_back(pow2(*job.base1, job.e1, *job.base2, job.e2));
  }
  return out;
}

std::vector<bool> Group::contains_many(
    const std::vector<const Bytes*>& as) const {
  std::vector<bool> out;
  out.reserve(as.size());
  for (const Bytes* a : as) out.push_back(contains(*a));
  return out;
}

// --- ZnGroup ----------------------------------------------------------------

ZnGroup::ZnGroup(Bigint modulus, Bigint order, Bigint generator)
    : modulus_(std::move(modulus)),
      order_(std::move(order)),
      generator_(std::move(generator)),
      width_((modulus_.bit_length() + 7) / 8) {
  if (modulus_ < Bigint(3)) {
    throw std::invalid_argument("ZnGroup: modulus too small");
  }
  if (generator_ <= Bigint(1) || generator_ >= modulus_) {
    throw std::invalid_argument("ZnGroup: generator out of range");
  }
  // A group lives for a whole protocol session; grab the shared
  // per-modulus context once so every pow/pow2/contains call skips the
  // Montgomery setup. Tower moduli are odd primes; the even case only
  // arises in adversarial tests and, like a modulus wider than FpCtx's
  // 2048 bits, falls back to the facade.
  if (FpCtx::supports(modulus_)) fp_ = fp_ctx(modulus_);
  if (!pow_raw(generator_, order_).is_one()) {
    throw std::invalid_argument("ZnGroup: generator order mismatch");
  }
}

ZnGroup ZnGroup::quadratic_residues(const Bigint& p, SecureRandom& rng) {
  const Bigint q = (p - Bigint(1)) / Bigint(2);
  for (;;) {
    const Bigint x = Bigint::random_range(rng, Bigint(2), p - Bigint(1));
    const Bigint g = (x * x).mod(p);
    if (g.is_one()) continue;
    return ZnGroup(p, q, g);
  }
}

Bytes ZnGroup::encode(const Bigint& x) const { return x.to_bytes_be(width_); }

Bigint ZnGroup::decode(const Bytes& a) const {
  if (a.size() != width_) {
    throw std::invalid_argument("ZnGroup: wrong element width");
  }
  return Bigint::from_bytes_be(a);
}

Bytes ZnGroup::identity() const { return encode(Bigint(1)); }

Bytes ZnGroup::op(const Bytes& a, const Bytes& b) const {
  return encode((decode(a) * decode(b)).mod(modulus_));
}

Bigint ZnGroup::pow_raw(const Bigint& base, const Bigint& exp) const {
  return fp_ ? fp_->pow(base, exp) : modexp(base, exp, modulus_);
}

Bytes ZnGroup::pow(const Bytes& base, const Bigint& exp) const {
  return encode(pow_raw(decode(base), exp.mod(order_)));
}

Bytes ZnGroup::pow2(const Bytes& base1, const Bigint& e1, const Bytes& base2,
                    const Bigint& e2) const {
  if (!fp_) return Group::pow2(base1, e1, base2, e2);
  const FpCtx& F = *fp_;
  const Bigint ea = e1.mod(order_);
  const Bigint eb = e2.mod(order_);
  // Shamir/Straus interleaving: one shared squaring chain over the joint
  // bit length, with {a, b, a·b} precomputed in the Montgomery domain.
  const FpElem a = F.to_mont(decode(base1));
  const FpElem b = F.to_mont(decode(base2));
  FpElem ab;
  F.mul(ab, a, b);
  FpElem acc = F.one();
  const std::size_t bits = std::max(ea.bit_length(), eb.bit_length());
  for (std::size_t i = bits; i-- > 0;) {
    F.sqr(acc, acc);
    const bool ba = ea.bit(i);
    const bool bb = eb.bit(i);
    if (ba && bb) {
      F.mul(acc, acc, ab);
    } else if (ba) {
      F.mul(acc, acc, a);
    } else if (bb) {
      F.mul(acc, acc, b);
    }
  }
  return encode(F.from_mont(acc));
}

Bytes ZnGroup::inv(const Bytes& a) const {
  return encode(modinv(decode(a), modulus_));
}

Bytes ZnGroup::pow_gen(const Bigint& exp) const {
  if (!fp_) return pow(generator(), exp);
  std::shared_ptr<const FixedBasePow> table = std::atomic_load(&gen_table_);
  if (!table) {
    table = std::make_shared<const FixedBasePow>(fp_, generator_,
                                                 order_.bit_length());
    // First build wins; a concurrent duplicate is identical anyway.
    std::shared_ptr<const FixedBasePow> expected;
    if (!std::atomic_compare_exchange_strong(&gen_table_, &expected, table)) {
      table = expected;
    }
  }
  return encode(table->pow(exp.mod(order_)));
}

bool ZnGroup::contains(const Bytes& a) const {
  if (a.size() != width_) return false;
  const Bigint x = Bigint::from_bytes_be(a);
  if (x.is_zero() || x >= modulus_) return false;
  return pow_raw(x, order_).is_one();
}

Bytes ZnGroup::describe() const {
  Bytes out = bytes_of("ZnGroup/");
  const Bytes m = modulus_.to_bytes_be();
  const Bytes o = order_.to_bytes_be();
  out.insert(out.end(), m.begin(), m.end());
  out.push_back('/');
  out.insert(out.end(), o.begin(), o.end());
  return out;
}

// --- EcGroup ----------------------------------------------------------------

EcGroup::EcGroup(TypeAParams params) : params_(std::move(params)) {}

Bytes EcGroup::generator() const { return encode(params_.g); }

Bytes EcGroup::encode(const EcPoint& pt) const {
  return ec_serialize(pt, params_.p);
}

EcPoint EcGroup::decode(const Bytes& a) const {
  return ec_deserialize(a, params_.p);
}

Bytes EcGroup::identity() const { return encode(EcPoint::at_infinity()); }

Bytes EcGroup::op(const Bytes& a, const Bytes& b) const {
  return encode(ec_add(decode(a), decode(b), params_.p));
}

Bytes EcGroup::pow(const Bytes& base, const Bigint& exp) const {
  return encode(ec_mul(decode(base), exp.mod(params_.r), params_.p));
}

Bytes EcGroup::inv(const Bytes& a) const {
  return encode(ec_neg(decode(a), params_.p));
}

bool EcGroup::contains(const Bytes& a) const {
  EcPoint pt;
  try {
    pt = decode(a);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return ec_mul(pt, params_.r, params_.p).infinity;
}

Bytes EcGroup::describe() const {
  Bytes out = bytes_of("EcGroup/");
  const Bytes p = params_.p.to_bytes_be();
  out.insert(out.end(), p.begin(), p.end());
  return out;
}

// --- GtGroup ----------------------------------------------------------------

GtGroup::GtGroup(TypeAParams params) : params_(std::move(params)) {
  // Same session-lifetime reasoning as ZnGroup: the engine holds the
  // shared Montgomery context for p, so pairings and GT exponentiations
  // skip the per-call setup. The engine rejects a field FpCtx cannot hold
  // (even p from hostile deserialization, or wider than 2048 bits), and
  // with it this group.
  engine_ = std::make_shared<const PairingEngine>(params_);
}

Bytes GtGroup::encode(const Fp2& x) const {
  return fp2_serialize(x, params_.p);
}

Fp2 GtGroup::decode(const Bytes& a) const {
  return fp2_deserialize(a, params_.p);
}

Bytes GtGroup::pair(const EcPoint& P, const EcPoint& Q) const {
  return encode(engine_->pair(P, Q));
}

Bytes GtGroup::pair(const PairingPrecomp& pre, const EcPoint& Q) const {
  return encode(engine_->pair(pre, Q));
}

Bytes GtGroup::pair_product(const std::vector<PairingTerm>& terms) const {
  return encode(engine_->pair_product(terms));
}

std::vector<Bytes> GtGroup::pair_products(
    const std::vector<std::vector<PairingTerm>>& products) const {
  std::vector<Bytes> out;
  out.reserve(products.size());
  for (const Fp2& v : engine_->pair_products(products)) {
    out.push_back(encode(v));
  }
  return out;
}

Bytes GtGroup::identity() const { return encode(fp2_one()); }

Bytes GtGroup::op(const Bytes& a, const Bytes& b) const {
  return encode(fp2_mul(decode(a), decode(b), params_.p));
}

Bytes GtGroup::pow(const Bytes& base, const Bigint& exp) const {
  return encode(engine_->gt_pow(decode(base), exp.mod(params_.r)));
}

Bytes GtGroup::pow2(const Bytes& base1, const Bigint& e1, const Bytes& base2,
                    const Bigint& e2) const {
  return pow2_many({Pow2Job{&base1, e1, &base2, e2}})[0];
}

std::vector<Bytes> GtGroup::pow2_many(const std::vector<Pow2Job>& jobs) const {
  std::vector<PairingEngine::GtPow2> raw;
  raw.reserve(jobs.size());
  for (const Pow2Job& job : jobs) {
    raw.push_back({decode(*job.base1), job.e1.mod(params_.r),
                   decode(*job.base2), job.e2.mod(params_.r)});
  }
  std::vector<Bytes> out;
  out.reserve(jobs.size());
  for (const Fp2& v : engine_->gt_pow2_many(raw)) out.push_back(encode(v));
  return out;
}

Bytes GtGroup::inv(const Bytes& a) const {
  return encode(fp2_inv(decode(a), params_.p));
}

bool GtGroup::contains(const Bytes& a) const { return contains_many({&a})[0]; }

std::vector<bool> GtGroup::contains_many(
    const std::vector<const Bytes*>& as) const {
  std::vector<bool> out(as.size(), false);
  std::vector<Fp2> xs;
  std::vector<std::size_t> slot;
  for (std::size_t i = 0; i < as.size(); ++i) {
    try {
      xs.push_back(decode(*as[i]));
    } catch (const std::invalid_argument&) {
      continue;
    }
    slot.push_back(i);
  }
  const std::vector<bool> member = engine_->gt_contains_many(xs);
  for (std::size_t j = 0; j < slot.size(); ++j) out[slot[j]] = member[j];
  return out;
}

Bytes GtGroup::describe() const {
  Bytes out = bytes_of("GtGroup/");
  const Bytes p = params_.p.to_bytes_be();
  out.insert(out.end(), p.begin(), p.end());
  return out;
}

}  // namespace ppms
