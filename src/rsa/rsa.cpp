#include "rsa/rsa.h"

#include <stdexcept>

#include "bigint/limbs.h"
#include "bigint/modarith.h"
#include "bigint/prime.h"
#include "hash/mgf1.h"
#include "hash/sha256.h"
#include "obs/metrics.h"
#include "util/serial.h"

namespace ppms {

Bytes RsaPublicKey::serialize() const {
  Writer w;
  w.put_bytes(n.to_bytes_be());
  w.put_bytes(e.to_bytes_be());
  return w.take();
}

RsaPublicKey RsaPublicKey::deserialize(const Bytes& data) {
  Reader r(data);
  RsaPublicKey key;
  key.n = Bigint::from_bytes_be(r.get_bytes());
  key.e = Bigint::from_bytes_be(r.get_bytes());
  if (!r.exhausted()) {
    throw std::invalid_argument("RsaPublicKey: trailing bytes");
  }
  return key;
}

Bytes RsaPublicKey::fingerprint() const { return sha256(serialize()); }

Bytes RsaPrivateKey::serialize() const {
  Writer w;
  for (const Bigint* field : {&n, &e, &d, &p, &q, &dp, &dq, &qinv}) {
    w.put_bytes(field->to_bytes_be());
  }
  return w.take();
}

RsaPrivateKey RsaPrivateKey::deserialize(const Bytes& data) {
  Reader r(data);
  RsaPrivateKey key;
  for (Bigint* field : {&key.n, &key.e, &key.d, &key.p, &key.q, &key.dp,
                        &key.dq, &key.qinv}) {
    *field = Bigint::from_bytes_be(r.get_bytes());
  }
  if (!r.exhausted()) {
    throw std::invalid_argument("RsaPrivateKey: trailing bytes");
  }
  // Structural validation: a corrupted private key must not silently
  // produce wrong signatures/decryptions.
  if (key.p * key.q != key.n) {
    throw std::invalid_argument("RsaPrivateKey: n != p*q");
  }
  const Bigint p1 = key.p - Bigint(1);
  const Bigint q1 = key.q - Bigint(1);
  if (key.dp != key.d.mod(p1) || key.dq != key.d.mod(q1) ||
      (key.qinv * key.q).mod(key.p) != Bigint(1)) {
    throw std::invalid_argument("RsaPrivateKey: CRT parameters broken");
  }
  if ((key.e * key.d).mod(lcm(p1, q1)) != Bigint(1)) {
    throw std::invalid_argument("RsaPrivateKey: e*d != 1 mod lambda");
  }
  return key;
}

RsaKeyPair rsa_generate(SecureRandom& rng, std::size_t bits,
                        const Bigint& e) {
  if (bits < 32 || bits % 2 != 0) {
    throw std::invalid_argument("rsa_generate: bits must be even and >= 32");
  }
  if (e.is_even() || e < Bigint(3)) {
    throw std::invalid_argument("rsa_generate: e must be odd and >= 3");
  }
  const std::size_t half = bits / 2;
  for (;;) {
    const Bigint p = random_prime(rng, half);
    const Bigint q = random_prime(rng, half);
    if (p == q) continue;
    const Bigint n = p * q;
    if (n.bit_length() != bits) continue;
    const Bigint p1 = p - Bigint(1);
    const Bigint q1 = q - Bigint(1);
    const Bigint lambda = lcm(p1, q1);
    if (!gcd(e, lambda).is_one()) continue;

    RsaPrivateKey priv;
    priv.n = n;
    priv.e = e;
    priv.d = modinv(e, lambda);
    priv.p = p;
    priv.q = q;
    priv.dp = priv.d.mod(p1);
    priv.dq = priv.d.mod(q1);
    priv.qinv = modinv(q, p);
    return {priv.public_key(), priv};
  }
}

Bigint rsa_public_op(const RsaPublicKey& key, const Bigint& m) {
  static obs::Counter& obs_calls = obs::counter("crypto.rsa.public_ops");
  obs_calls.add();
  static obs::Histogram& obs_lat = obs::histogram("crypto.rsa.public");
  obs::ScopedTimer obs_timer(obs_lat);
  if (m.is_negative() || m >= key.n) {
    throw std::invalid_argument("rsa_public_op: message out of range");
  }
  // An honest n = p·q is odd; the shared context makes the verify-heavy
  // paths (blind-signature deposit checks, market-wide signature
  // validation) pay the Montgomery setup once per key instead of once per
  // call. Degenerate even moduli (hostile key material) and moduli wider
  // than FpCtx's 2048 bits still compute through the facade.
  if (!FpCtx::supports(key.n)) return modexp(m, key.e, key.n);
  return modexp(m, key.e, *fp_ctx(key.n));
}

Bigint rsa_private_op(const RsaPrivateKey& key, const Bigint& c) {
  static obs::Counter& obs_calls = obs::counter("crypto.rsa.private_ops");
  obs_calls.add();
  static obs::Histogram& obs_lat = obs::histogram("crypto.rsa.private");
  obs::ScopedTimer obs_timer(obs_lat);
  if (c.is_negative() || c >= key.n) {
    throw std::invalid_argument("rsa_private_op: input out of range");
  }
  // CRT: m_p = c^dp mod p, m_q = c^dq mod q, recombine with Garner. The
  // prime-modulus contexts are cached per key factor (honest factors are
  // odd; anything else falls back to the general facade).
  const auto crt_half = [&c](const Bigint& d, const Bigint& prime) {
    return FpCtx::supports(prime) ? modexp(c, d, *fp_ctx(prime))
                                  : modexp(c, d, prime);
  };
  const Bigint mp = crt_half(key.dp, key.p);
  const Bigint mq = crt_half(key.dq, key.q);
  const Bigint h = (key.qinv * (mp - mq)).mod(key.p);
  return mq + h * key.q;
}

Bigint rsa_fdh(const RsaPublicKey& key, const Bytes& msg) {
  const Bytes seed = sha256(msg);
  // One extra byte of expansion keeps the reduction bias below 2^-8 of the
  // modulus; fine for the FDH signatures used here.
  const Bytes wide = mgf1_sha256(seed, key.modulus_bytes() + 1);
  return Bigint::from_bytes_be(wide).mod(key.n);
}

}  // namespace ppms
