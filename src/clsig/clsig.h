// Camenisch–Lysyanskaya signatures (CRYPTO 2004, Scheme A) over the Type-A
// pairing — the clpk/clsk key material of the paper's PPMSdec mechanism.
//
// Messages are exponents m in Z_r. Two properties carry the DEC protocol:
//  * blind issuance: the signer can sign a Pedersen-style commitment
//    M = g^m without learning m (cl_sign_committed), which is how the bank
//    certifies a wallet secret at withdrawal while the withdrawal stays
//    anonymous;
//  * re-randomization: (a,b,c) → (a^ρ,b^ρ,c^ρ) is a fresh-looking valid
//    signature on the same m, so a spender can present a certified wallet
//    without the bank recognizing which issuance it came from.
#pragma once

#include <vector>

#include "pairing/pipeline.h"
#include "pairing/tate.h"
#include "pairing/typea.h"
#include "util/rng.h"

namespace ppms {

struct ClSecretKey {
  Bigint x, y;
};

struct ClPublicKey {
  EcPoint X, Y;

  Bytes serialize(const TypeAParams& params) const;
  /// Accepts only canonical on-curve points of the order-r subgroup G
  /// (std::invalid_argument otherwise).
  static ClPublicKey deserialize(const TypeAParams& params,
                                 const Bytes& data);
};

struct ClKeyPair {
  ClSecretKey sk;
  ClPublicKey pk;
};

struct ClSignature {
  EcPoint a, b, c;

  Bytes serialize(const TypeAParams& params) const;
  static ClSignature deserialize(const TypeAParams& params,
                                 const Bytes& data);
};

ClKeyPair cl_keygen(const TypeAParams& params, SecureRandom& rng);

/// Sign message m ∈ Z_r (counted as Enc).
ClSignature cl_sign(const TypeAParams& params, const ClSecretKey& sk,
                    const Bigint& m, SecureRandom& rng);

/// Sign the commitment M = g^m without learning m (counted as Enc). The
/// holder later verifies the result against its own m.
ClSignature cl_sign_committed(const TypeAParams& params,
                              const ClSecretKey& sk, const EcPoint& M,
                              SecureRandom& rng);

/// Verify signature on m (counted as Dec): ê(a,Y) == ê(g,b) and
/// ê(X,a)·ê(X,b)^m == ê(g,c). False when a is infinity or any of a, b, c,
/// X, Y is off the curve or outside G (one lockstep [r] ladder over the
/// five points).
bool cl_verify(const TypeAParams& params, const ClPublicKey& pk,
               const Bigint& m, const ClSignature& sig);

/// Re-randomize into an unlinkable but equally valid signature: one
/// lockstep ec_mul_many of (a, b, c) by a fresh ρ.
ClSignature cl_randomize(const TypeAParams& params, const ClSignature& sig,
                         SecureRandom& rng);

/// One (message, signature) claim of a deposit batch.
struct ClBatchItem {
  Bigint m;
  ClSignature sig;
};

/// One small-exponent batch-verification scalar, uniform in
/// [1, min(r, 2^64)): never ≡ 0 mod the prime group order r, so no
/// member can drop out of the batched product, and a batch holding a
/// false equation passes with probability at most 1/(min(r, 2^64) − 1).
/// (Every DEC market has a 57-bit r — the first Cunningham-chain prime —
/// so there the bound is 1/(r − 1), not 2^-64.)
Bigint batch_scalar(SecureRandom& rng, const Bigint& r);

/// Randomized small-exponent batch verification (counted as one Dec per
/// item, like the per-signature path). Folds all 2·N verification
/// equations into a single product of pairings
///     ∏_j [ê(Y,a_j)·ê(g,b_j)⁻¹]^{δ_j} ·
///          [ê(X,a_j)·ê(X,b_j)^{m_j}·ê(g,c_j)⁻¹]^{δ'_j}  ==  1
/// with independent per-equation scalars δ, δ' from batch_scalar on the
/// verifier's own stream — a forged batch passes with probability at
/// most 1/(min(r, 2^64) − 1). One lockstep [r] ladder over every member's
/// points precedes the product, and a key off the curve or outside G
/// fails every member. On reject it falls back to per-signature
/// verification, so the returned flags always match cl_verify exactly;
/// the fast path only ever accelerates the all-valid case.
std::vector<bool> cl_verify_batch(const TypeAParams& params,
                                  const ClPublicKey& pk,
                                  const std::vector<ClBatchItem>& items,
                                  SecureRandom& rng);

}  // namespace ppms
