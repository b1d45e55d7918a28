#include "clsig/clsig.h"

#include <stdexcept>

#include "obs/metrics.h"
#include "util/counters.h"
#include "util/serial.h"

namespace ppms {

Bytes ClPublicKey::serialize(const TypeAParams& params) const {
  Writer w;
  w.put_bytes(ec_serialize(X, params.p));
  w.put_bytes(ec_serialize(Y, params.p));
  return w.take();
}

ClPublicKey ClPublicKey::deserialize(const TypeAParams& params,
                                     const Bytes& data) {
  Reader r(data);
  ClPublicKey pk;
  pk.X = ec_deserialize(r.get_bytes(), params.p);
  pk.Y = ec_deserialize(r.get_bytes(), params.p);
  if (!r.exhausted()) throw std::invalid_argument("ClPublicKey: trailing");
  if (!typea_in_subgroup(params, {pk.X, pk.Y})) {
    throw std::invalid_argument("ClPublicKey: key point outside G");
  }
  return pk;
}

Bytes ClSignature::serialize(const TypeAParams& params) const {
  Writer w;
  w.put_bytes(ec_serialize(a, params.p));
  w.put_bytes(ec_serialize(b, params.p));
  w.put_bytes(ec_serialize(c, params.p));
  return w.take();
}

ClSignature ClSignature::deserialize(const TypeAParams& params,
                                     const Bytes& data) {
  Reader r(data);
  ClSignature sig;
  sig.a = ec_deserialize(r.get_bytes(), params.p);
  sig.b = ec_deserialize(r.get_bytes(), params.p);
  sig.c = ec_deserialize(r.get_bytes(), params.p);
  if (!r.exhausted()) throw std::invalid_argument("ClSignature: trailing");
  return sig;
}

ClKeyPair cl_keygen(const TypeAParams& params, SecureRandom& rng) {
  ClKeyPair kp;
  kp.sk.x = Bigint::random_range(rng, Bigint(1), params.r);
  kp.sk.y = Bigint::random_range(rng, Bigint(1), params.r);
  kp.pk.X = ec_mul(params.g, kp.sk.x, params.p);
  kp.pk.Y = ec_mul(params.g, kp.sk.y, params.p);
  return kp;
}

ClSignature cl_sign(const TypeAParams& params, const ClSecretKey& sk,
                    const Bigint& m, SecureRandom& rng) {
  count_op(OpKind::Enc);
  static obs::Counter& obs_enc = obs::counter("crypto.enc.calls");
  if (!op_counting_paused()) obs_enc.add();
  static obs::Histogram& obs_lat = obs::histogram("crypto.cl.sign");
  obs::ScopedTimer obs_timer(obs_lat);
  const Bigint mr = m.mod(params.r);
  ClSignature sig;
  const Bigint alpha = Bigint::random_range(rng, Bigint(1), params.r);
  sig.a = ec_mul(params.g, alpha, params.p);
  sig.b = ec_mul(sig.a, sk.y, params.p);
  const Bigint exp = (sk.x + (mr * sk.x * sk.y)).mod(params.r);
  sig.c = ec_mul(sig.a, exp, params.p);
  return sig;
}

ClSignature cl_sign_committed(const TypeAParams& params,
                              const ClSecretKey& sk, const EcPoint& M,
                              SecureRandom& rng) {
  count_op(OpKind::Enc);
  static obs::Counter& obs_enc = obs::counter("crypto.enc.calls");
  if (!op_counting_paused()) obs_enc.add();
  static obs::Histogram& obs_lat = obs::histogram("crypto.cl.sign");
  obs::ScopedTimer obs_timer(obs_lat);
  if (!ec_on_curve(M, params.p)) {
    throw std::invalid_argument("cl_sign_committed: bad commitment");
  }
  ClSignature sig;
  const Bigint alpha = Bigint::random_range(rng, Bigint(1), params.r);
  sig.a = ec_mul(params.g, alpha, params.p);
  sig.b = ec_mul(sig.a, sk.y, params.p);
  // c = a^x · M^{α·x·y} = a^{x + m·x·y} for M = g^m.
  const EcPoint ax = ec_mul(sig.a, sk.x, params.p);
  const Bigint axy = (alpha * sk.x * sk.y).mod(params.r);
  sig.c = ec_add(ax, ec_mul(M, axy, params.p), params.p);
  return sig;
}

namespace {

// a ≠ ∞ and every signature point on the curve: the checks both verifiers
// make before the subgroup ladder and any pairing.
bool sig_on_curve(const TypeAParams& params, const ClSignature& sig) {
  return !sig.a.infinity && ec_on_curve(sig.a, params.p) &&
         ec_on_curve(sig.b, params.p) && ec_on_curve(sig.c, params.p);
}

// The pairing equations, shared by cl_verify and the batch fallback, for
// a signature already known to be on the curve and in G; op counters live
// in the public entry points. Each CL equation is one product of
// pairings: combining the Miller values before the (single) final
// exponentiation is exact, and u·v⁻¹ == 1 in F_p² iff u == v, so the
// accept/reject decision matches the independent-pairing form.
bool cl_verify_core(const TypeAParams& params, const PairingEngine& engine,
                    const ClPublicKey& pk, const Bigint& m,
                    const ClSignature& sig) {
  const Bigint mr = m.mod(params.r);
  // ê(a, Y) · ê(g, b)⁻¹ == 1
  if (!fp2_is_one(engine.pair_product({
          PairingTerm{.P = sig.a, .Q = pk.Y},
          PairingTerm{.P = params.g, .Q = sig.b, .invert = true},
      }))) {
    return false;
  }
  // ê(X, a) · ê(X, b)^m · ê(g, c)⁻¹ == 1
  return fp2_is_one(engine.pair_product({
      PairingTerm{.P = pk.X, .Q = sig.a},
      PairingTerm{.P = pk.X, .Q = sig.b, .exp = mr},
      PairingTerm{.P = params.g, .Q = sig.c, .invert = true},
  }));
}

}  // namespace

bool cl_verify(const TypeAParams& params, const ClPublicKey& pk,
               const Bigint& m, const ClSignature& sig) {
  count_op(OpKind::Dec);
  static obs::Counter& obs_dec = obs::counter("crypto.dec.calls");
  if (!op_counting_paused()) obs_dec.add();
  static obs::Histogram& obs_lat = obs::histogram("crypto.cl.verify");
  obs::ScopedTimer obs_timer(obs_lat);
  // Outside G the two equations are not the batch verifier's: a cofactor
  // component of a changes the Miller function of ê(a, Y), while the batch
  // orients a into the second slot. So points outside G fail here, key
  // points included, exactly as cl_verify_batch fails them.
  if (!sig_on_curve(params, sig) || !ec_on_curve(pk.X, params.p) ||
      !ec_on_curve(pk.Y, params.p) ||
      !typea_in_subgroup(params, {sig.a, sig.b, sig.c, pk.X, pk.Y})) {
    return false;
  }
  const PairingEngine engine(params);
  return cl_verify_core(params, engine, pk, m, sig);
}

ClSignature cl_randomize(const TypeAParams& params, const ClSignature& sig,
                         SecureRandom& rng) {
  const Bigint rho = Bigint::random_range(rng, Bigint(1), params.r);
  const std::vector<EcPoint> out =
      ec_mul_many({sig.a, sig.b, sig.c}, rho, params.p);
  return ClSignature{out[0], out[1], out[2]};
}

Bigint batch_scalar(SecureRandom& rng, const Bigint& r) {
  const Bigint cap = Bigint::two_pow(64);
  return Bigint::random_range(rng, Bigint(1), r < cap ? r : cap);
}

std::vector<bool> cl_verify_batch(const TypeAParams& params,
                                  const ClPublicKey& pk,
                                  const std::vector<ClBatchItem>& items,
                                  SecureRandom& rng) {
  // Same op-count footprint as N calls to cl_verify, whichever internal
  // path decides the batch.
  for (std::size_t j = 0; j < items.size(); ++j) count_op(OpKind::Dec);
  static obs::Counter& obs_dec = obs::counter("crypto.dec.calls");
  if (!op_counting_paused()) obs_dec.add(items.size());
  static obs::Histogram& obs_lat = obs::histogram("crypto.cl.verify_batch");
  obs::ScopedTimer obs_timer(obs_lat);
  if (items.empty()) return {};

  const PairingEngine engine(params);

  // Fixed-argument tables for the three constant first points; the batch
  // orients every pairing constant-first (the pairing is symmetric on the
  // order-r subgroup). The tables cost one Miller loop each and serve
  // 5·N pairings.
  const PairingPrecomp pre_g = engine.precompute(params.g);
  PairingPrecomp pre_x, pre_y;
  try {
    pre_x = engine.precompute(pk.X);
    pre_y = engine.precompute(pk.Y);
  } catch (const std::invalid_argument&) {
    return std::vector<bool>(items.size(), false);  // pk off-curve or ∉ G
  }

  // Every member's points go through one lockstep [r] ladder; a member off
  // the curve or outside G fails here, as it does in cl_verify.
  std::vector<EcPoint> pts;
  pts.reserve(3 * items.size());
  for (const ClBatchItem& item : items) {
    pts.insert(pts.end(), {item.sig.a, item.sig.b, item.sig.c});
  }
  const std::vector<EcPoint> rpts = ec_mul_many(pts, params.r, params.p);
  std::vector<bool> well(items.size());
  bool all_well = true;
  for (std::size_t j = 0; j < items.size(); ++j) {
    well[j] = sig_on_curve(params, items[j].sig) && rpts[3 * j].infinity &&
              rpts[3 * j + 1].infinity && rpts[3 * j + 2].infinity;
    all_well = all_well && well[j];
  }
  const auto fallback = [&] {
    std::vector<bool> ok(items.size());
    for (std::size_t j = 0; j < items.size(); ++j) {
      ok[j] = well[j] &&
              cl_verify_core(params, engine, pk, items[j].m, items[j].sig);
    }
    return ok;
  };
  // A malformed member cannot enter the folded product: identify it
  // per-signature.
  if (!all_well) return fallback();

  std::vector<PairingTerm> terms;
  terms.reserve(items.size() * 5);
  for (const ClBatchItem& item : items) {
    const ClSignature& sig = item.sig;
    // Independent scalars per equation: a shared δ would let an adversary
    // cancel an error in one equation against the other. Scalars below
    // min(r, 2^64) keep a wrong product's survival chance at
    // 1/(min(r, 2^64) − 1) and cost at most 64-bit F_p² exponentiations
    // inside the product.
    const Bigint d1 = batch_scalar(rng, params.r);
    const Bigint d2 = batch_scalar(rng, params.r);
    const Bigint mr = item.m.mod(params.r);
    terms.push_back(PairingTerm{.pre = &pre_y, .Q = sig.a, .exp = d1});
    terms.push_back(
        PairingTerm{.pre = &pre_g, .Q = sig.b, .exp = d1, .invert = true});
    terms.push_back(PairingTerm{.pre = &pre_x, .Q = sig.a, .exp = d2});
    terms.push_back(
        PairingTerm{.pre = &pre_x, .Q = sig.b, .exp = (d2 * mr).mod(params.r)});
    terms.push_back(
        PairingTerm{.pre = &pre_g, .Q = sig.c, .exp = d2, .invert = true});
  }
  if (fp2_is_one(engine.pair_product(terms))) {
    return std::vector<bool>(items.size(), true);
  }
  return fallback();
}

}  // namespace ppms
