#include "blind/blind_rsa.h"

#include "bigint/modarith.h"
#include "util/counters.h"
#include "obs/metrics.h"

namespace ppms {

std::pair<BlindedMessage, BlindingState> rsa_blind(const RsaPublicKey& key,
                                                   const Bytes& msg,
                                                   SecureRandom& rng) {
  count_op(OpKind::Enc);
  static obs::Counter& obs_enc = obs::counter("crypto.enc.calls");
  if (!op_counting_paused()) obs_enc.add();
  const Bigint h = rsa_fdh(key, msg);
  // r must be invertible mod n; a random unit is found immediately for any
  // honest modulus (non-units reveal a factor of n). The facade serves r^e
  // from the key's cached Montgomery context.
  for (;;) {
    const Bigint r = Bigint::random_range(rng, Bigint(2), key.n);
    if (!gcd(r, key.n).is_one()) continue;
    const Bigint blinded = (h * modexp(r, key.e, key.n)).mod(key.n);
    return {BlindedMessage{blinded}, BlindingState{modinv(r, key.n)}};
  }
}

Bigint rsa_blind_sign(const RsaPrivateKey& key,
                      const BlindedMessage& blinded) {
  count_op(OpKind::Enc);
  static obs::Counter& obs_enc = obs::counter("crypto.enc.calls");
  if (!op_counting_paused()) obs_enc.add();
  return rsa_private_op(key, blinded.value);
}

Bytes rsa_unblind(const RsaPublicKey& key, const Bigint& blind_sig,
                  const BlindingState& state) {
  const Bigint s = (blind_sig * state.r_inv).mod(key.n);
  return s.to_bytes_be(key.modulus_bytes());
}

bool rsa_blind_verify(const RsaPublicKey& key, const Bytes& msg,
                      const Bytes& signature) {
  count_op(OpKind::Dec);
  static obs::Counter& obs_dec = obs::counter("crypto.dec.calls");
  if (!op_counting_paused()) obs_dec.add();
  if (signature.size() != key.modulus_bytes()) return false;
  const Bigint s = Bigint::from_bytes_be(signature);
  if (s >= key.n) return false;
  return rsa_public_op(key, s) == rsa_fdh(key, msg);
}

}  // namespace ppms
