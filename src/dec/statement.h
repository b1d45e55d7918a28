// The certificate half of a spend's zero-knowledge statement, shared by
// regular spends, root-hiding spends and the bank's batch verifier.
//
// For a re-randomized CL certificate (a, b, c) under bank key (X, Y):
//     V = ê(X, b),   W = ê(g, c) · ê(X, a)⁻¹,   valid for t  ⟺  W = V^t.
// Both values are pairing products oriented fixed-point-first, so with the
// session's Miller tables they are table replays; a list of certificates
// (plus any other product the caller needs decided, like the batch's
// randomized certificate equation) goes through ONE pair_products call —
// one Miller pass and one batched final exponentiation. The V/W bytes are
// the same field elements however they are batched, so every Fiat–Shamir
// transcript is unchanged.
#pragma once

#include <optional>
#include <vector>

#include "dec/root_hiding.h"
#include "dec/session.h"

namespace ppms {

struct GtStatement {
  Bytes V, W;
};

/// Statements for `certs` (every point on the curve) from one
/// pair_products call. A non-null `lead` rides along as the call's first
/// product; its encoded value is written to *lead_value.
std::vector<GtStatement> gt_statements(
    const DecSession& session, const ClPkPrecomp& pre_pk,
    const std::vector<const ClSignature*>& certs,
    const std::vector<PairingTerm>* lead = nullptr,
    Bytes* lead_value = nullptr);

/// One certificate's statement, from the market session's tables. An
/// off-curve bank key (no tables) takes independent pairings against it,
/// keeping their throw behaviour.
GtStatement gt_statement(const DecParams& params, const ClPublicKey& bank_pk,
                         const ClSignature& cert);

/// verify_cert_equation_batch that also returns every well-formed
/// member's statement, all from one engine call: the randomized
/// certificate product over the well-formed members leads, their 2·N
/// statement products follow. Flags match verify_cert_equation exactly
/// (a malformed member is false on its own; per-certificate fallback when
/// the product is not 1). statements[j] is empty for a member with
/// malformed certificate points, and for every member under an off-curve
/// bank key.
struct CertBatch {
  std::vector<bool> cert_ok;
  std::vector<std::optional<GtStatement>> statements;
};
CertBatch verify_certs_with_statements(
    const DecParams& params, const ClPublicKey& bank_pk,
    const std::vector<const ClSignature*>& certs, SecureRandom& rng);

/// verify_spend_assuming_cert for every bundle, with each certificate
/// statement already computed (a null entry: compute it with
/// gt_statement). Structure and V = 1 decide a bundle alone; every other
/// bundle's equality proof goes through one equality_verify_many call,
/// whose GT membership tests and proof equations run in lockstep on the
/// lane kernels. Flags are in input order; each bundle still counts as one
/// ZKP verify when it reaches the proof check, as verify_spend does.
std::vector<bool> verify_spends_with_statements(
    const DecParams& params, const ClPublicKey& bank_pk,
    const std::vector<const SpendBundle*>& bundles,
    const std::vector<const GtStatement*>& stmts);

/// Everything verify_root_hiding_spend checks except the certificate
/// pairing equation ê(a,Y) == ê(g,b), which the bank decides for a whole
/// batch, on the certificate statement the batch computed alongside
/// (null: compute it with gt_statement). Counted like
/// verify_root_hiding_spend (one ZKP verify).
bool verify_root_hiding_spend_with_statement(const DecParams& params,
                                             const ClPublicKey& bank_pk,
                                             const RootHidingSpend& spend,
                                             std::size_t rounds,
                                             const GtStatement* stmt);

}  // namespace ppms
