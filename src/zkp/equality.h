// Proof of equality of discrete logarithms across two (possibly different)
// groups of the same prime order:
//   PoK{ x : y1 = g1^x in G1  ∧  y2 = g2^x in G2 }.
//
// This is the linchpin of the DEC spend proof: the same wallet secret t
// sits under the CL certificate (an equation in the pairing target group
// GT) and under the coin's root serial (an equation in the Cunningham
// tower group G_1). Both groups are constructed with order r, so one
// shared challenge and one shared response prove equality.
#pragma once

#include "zkp/group.h"
#include "zkp/transcript.h"

namespace ppms {

struct EqualityProof {
  Bytes commitment1;  ///< A1 = g1^k in G1
  Bytes commitment2;  ///< A2 = g2^k in G2
  Bigint response;    ///< z = k + c·x mod order

  Bytes serialize() const;
  static EqualityProof deserialize(const Bytes& data);
};

/// Prove y1 == g1^x and y2 == g2^x for the same x. Throws
/// std::invalid_argument if the two groups' orders differ. Counted as one
/// ZKP operation.
EqualityProof equality_prove(const Group& group1, const Bytes& g1,
                             const Bytes& y1, const Group& group2,
                             const Bytes& g2, const Bytes& y2,
                             const Bigint& x, SecureRandom& rng,
                             const Bytes& context = {});

/// One statement of an equality_verify_many batch: y1 == g1^x in the
/// batch's group1 and y2 == g2^x in its group2, with the proof and its
/// Fiat–Shamir context. Pointers must outlive the call.
struct EqualityInstance {
  const Bytes* g1;
  const Bytes* y1;
  const Bytes* g2;
  const Bytes* y2;
  const EqualityProof* proof;
  const Bytes* context;
};

/// The equality verifier: one exact verdict per instance, in order. Each
/// instance counts as one ZKP operation (and one zkp.verify), as if
/// verified alone. Per-instance checks run first (statement membership
/// unless `trusted_statement`, A2 membership, response range, challenge);
/// then every survivor's A1 membership and its group1 equation
/// g1^z · y1^(q−c) == A1 go through group1's contains_many and pow2_many,
/// which GtGroup runs in lockstep on the lane kernels.
///
/// `trusted_statement` skips the membership checks on y1 and y2 (one full
/// group exponentiation each). It is only sound when the caller
/// guarantees both are group members — e.g. y1 is a pairing output
/// (always in GT) and y2 was membership-checked upstream; the
/// attacker-chosen commitments are still validated, so verdicts are
/// identical whenever that guarantee holds.
std::vector<bool> equality_verify_many(
    const Group& group1, const Group& group2,
    const std::vector<EqualityInstance>& instances, bool trusted_statement);

/// equality_verify_many of one untrusted statement.
bool equality_verify(const Group& group1, const Bytes& g1, const Bytes& y1,
                     const Group& group2, const Bytes& g2, const Bytes& y2,
                     const EqualityProof& proof, const Bytes& context = {});

}  // namespace ppms
