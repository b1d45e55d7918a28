#include "blind/partial_blind.h"

#include "bigint/modarith.h"
#include "bigint/prime.h"
#include "hash/sha256.h"
#include "util/counters.h"
#include "obs/metrics.h"

namespace ppms {

Bigint pbs_info_exponent(const RsaPublicKey& key, const Bytes& info) {
  // Hash-to-prime: the smallest prime at or above the odd 64-bit fold of
  // the info. A prime multiplier is coprime to lambda(n) except when it
  // divides lambda exactly — probability ~2^-40 — so pbs_sign essentially
  // never refuses. Deterministic, so requester, signer and verifier derive
  // the same exponent. Multiplying by the base exponent e keeps the
  // signer's unforgeability (a forger would still need an e-th root).
  const Bytes digest = sha256(concat(bytes_of("ppms.pbs.info"), info));
  std::uint64_t fold = read_u64_be(digest, 0) | 1;
  fold &= (1ull << 62) - 1;  // headroom so the prime search cannot wrap
  while (!is_prime_u64(fold)) fold += 2;
  return key.e * Bigint::from_u64(fold);
}

std::pair<PbsBlindedMessage, PbsBlindingState> pbs_blind(
    const RsaPublicKey& key, const Bytes& m, const Bytes& info,
    SecureRandom& rng) {
  count_op(OpKind::Enc);
  static obs::Counter& obs_enc = obs::counter("crypto.enc.calls");
  if (!op_counting_paused()) obs_enc.add();
  const Bigint ea = pbs_info_exponent(key, info);
  const Bigint h = rsa_fdh(key, m);
  for (;;) {
    const Bigint r = Bigint::random_range(rng, Bigint(2), key.n);
    if (!gcd(r, key.n).is_one()) continue;
    const Bigint blinded = (h * modexp(r, ea, key.n)).mod(key.n);
    return {PbsBlindedMessage{blinded}, PbsBlindingState{modinv(r, key.n)}};
  }
}

std::optional<Bigint> pbs_sign(const RsaPrivateKey& key,
                               const PbsBlindedMessage& blinded,
                               const Bytes& info) {
  count_op(OpKind::Enc);
  static obs::Counter& obs_enc = obs::counter("crypto.enc.calls");
  if (!op_counting_paused()) obs_enc.add();
  const Bigint ea = pbs_info_exponent(key.public_key(), info);
  const Bigint lambda = lcm(key.p - Bigint(1), key.q - Bigint(1));
  if (!gcd(ea, lambda).is_one()) return std::nullopt;
  const Bigint da = modinv(ea, lambda);
  if (blinded.value.is_negative() || blinded.value >= key.n) {
    throw std::invalid_argument("pbs_sign: blinded value out of range");
  }
  return modexp(blinded.value, da, key.n);
}

Bytes pbs_unblind(const RsaPublicKey& key, const Bigint& blind_sig,
                  const PbsBlindingState& state) {
  return (blind_sig * state.r_inv).mod(key.n).to_bytes_be(
      key.modulus_bytes());
}

bool pbs_verify(const RsaPublicKey& key, const Bytes& m, const Bytes& info,
                const Bytes& signature) {
  count_op(OpKind::Dec);
  static obs::Counter& obs_dec = obs::counter("crypto.dec.calls");
  if (!op_counting_paused()) obs_dec.add();
  if (signature.size() != key.modulus_bytes()) return false;
  const Bigint s = Bigint::from_bytes_be(signature);
  if (s >= key.n) return false;
  const Bigint ea = pbs_info_exponent(key, info);
  // The facade resolves to the cached per-modulus context for any honest
  // (odd) n and still computes for degenerate key material.
  return modexp(s, ea, key.n) == rsa_fdh(key, m);
}

}  // namespace ppms
