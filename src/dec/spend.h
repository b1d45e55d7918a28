// The Spend message of the DEC scheme and its public verification.
//
// Spending tree node ν of a certified coin reveals the serial path
// S_0..S_ν plus a re-randomized CL certificate, and proves in zero
// knowledge that the hidden wallet secret t both (a) underlies the
// certificate and (b) generates the revealed root serial. Everything else
// — path consistency, certificate well-formedness — is publicly checkable,
// so the verifier (the receiving SP, and later the bank) never learns t or
// the spender's identity.
#pragma once

#include "clsig/clsig.h"
#include "dec/coin.h"
#include "zkp/equality.h"

namespace ppms {

struct SpendBundle {
  NodeIndex node;
  std::vector<Bigint> path_serials;  ///< S_0 .. S_depth
  ClSignature cert;                  ///< re-randomized CL certificate
  EqualityProof proof;               ///< PoK{t: GT relation ∧ S_0 = g_1^t}
  Bytes context;                     ///< payee/session binding

  Bytes serialize(const DecParams& params) const;
  static SpendBundle deserialize(const DecParams& params, const Bytes& data);
};

/// The transcript-binding bytes for a bundle: everything but the proof.
Bytes spend_binding(const DecParams& params, const SpendBundle& bundle);

/// Full public verification (path membership, chain links, certificate
/// pairing check, equality proof). Does NOT consult the double-spend
/// database — that is the bank's deposit-time job.
bool verify_spend(const DecParams& params, const ClPublicKey& bank_pk,
                  const SpendBundle& bundle);

/// The t-independent certificate half-check shared by regular and
/// root-hiding spends: well-formed points plus ê(a, Y) == ê(g, b). Split
/// out so the bank can batch it across a whole deposit tick;
/// verify_spend ⟺ verify_cert_equation ∧ verify_spend_assuming_cert.
bool verify_cert_equation(const DecParams& params, const ClPublicKey& bank_pk,
                          const ClSignature& cert);

/// Randomized small-exponent batch form of verify_cert_equation: one
/// product of pairings ∏_j [ê(Y,a_j)·ê(g,b_j)⁻¹]^{δ_j} == 1 over the
/// certificates with well-formed points, with fresh δ_j ∈ [1, min(r, 2^64))
/// per certificate (batch_scalar), decides them all (false-accept
/// probability ≤ 1/(min(r, 2^64) − 1), which is 1/(r − 1) for the 57-bit
/// r of every DEC market); a lone well-formed certificate takes δ = 1,
/// which is exact. On reject it falls back to per-certificate checks, so
/// the returned flags always match verify_cert_equation. Null and
/// malformed entries come back false without voiding the product.
std::vector<bool> verify_cert_equation_batch(
    const DecParams& params, const ClPublicKey& bank_pk,
    const std::vector<const ClSignature*>& certs, SecureRandom& rng);

/// Everything verify_spend checks except the certificate pairing
/// equation (structure, serial membership, chain links, equality proof).
bool verify_spend_assuming_cert(const DecParams& params,
                                const ClPublicKey& bank_pk,
                                const SpendBundle& bundle);

/// Produce a spend of `node` from wallet secret `t` certified by `cert`
/// (the caller re-randomizes; this signs the statement). Exposed for the
/// wallet and for adversarial tests that forge pieces.
SpendBundle make_spend(const DecParams& params, const ClPublicKey& bank_pk,
                       const Bigint& t, const ClSignature& cert,
                       const NodeIndex& node, SecureRandom& rng,
                       const Bytes& context);

}  // namespace ppms
