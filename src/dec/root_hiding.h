// Root-hiding spends — an extension beyond the paper's baseline scheme.
//
// A regular SpendBundle reveals the full serial path S_0..S_d, so every
// spend from one coin shares the root serial S_0: the bank can cluster all
// of a coin's spends (classic Okamoto-tree linkability; the paper inherits
// it). A RootHidingSpend reveals only S_1..S_d and replaces the root link
// with a zero-knowledge proof, cutting the coarsest clustering signal in
// half (spends from the two depth-1 subtrees become unlinkable).
//
// The proof is a cut-and-choose AND-composition of Stadler's double
// discrete log [36] with the certificate relation:
//   PoK{ t :  S_1 · g_1'^{-b_1} = (g_1'^2)^{(g_0^t)}   (tower statement)
//          ∧  W = V^t }                                  (GT statement)
// where g_0, g_1' are the tower generators at depths 0 and 1, b_1 is the
// first branch bit, and (V, W) encode CL-certificate validity exactly as
// in the regular spend. Per round i the prover draws r_i and commits
//   T_i = (g_1'^2)^{(g_0^{r_i})}   and   U_i = V^{r_i};
// challenge bit 0 opens r_i, bit 1 opens r_i - t, and both sides check.
// Soundness is 2^-rounds.
//
// Bank-side double-spend handling lives in DecBank::settle_verified; the
// depth-0 special casing it needs is documented there.
#pragma once

#include "dec/spend.h"

namespace ppms {

struct RootHidingSpend {
  NodeIndex node;                    ///< depth >= 1
  std::vector<Bigint> path_serials;  ///< S_1 .. S_depth (no root!)
  ClSignature cert;                  ///< re-randomized CL certificate
  std::vector<Bytes> tower_commitments;  ///< T_i in tower[1]
  std::vector<Bytes> gt_commitments;     ///< U_i in GT
  std::vector<Bigint> responses;         ///< z_i in Z_r
  Bytes context;

  std::size_t rounds() const { return responses.size(); }

  Bytes serialize(const DecParams& params) const;
  static RootHidingSpend deserialize(const DecParams& params,
                                     const Bytes& data);
};

/// Default soundness: 2^-32 per spend.
inline constexpr std::size_t kRootHidingRounds = 32;

/// Produce a root-hiding spend of `node` (depth >= 1; throws
/// std::invalid_argument on a root node — a root spend necessarily
/// reveals its own serial).
RootHidingSpend make_root_hiding_spend(const DecParams& params,
                                       const ClPublicKey& bank_pk,
                                       const Bigint& t,
                                       const ClSignature& cert,
                                       const NodeIndex& node,
                                       SecureRandom& rng,
                                       const Bytes& context,
                                       std::size_t rounds =
                                           kRootHidingRounds);

/// Public verification (no double-spend check; that is deposit-time).
bool verify_root_hiding_spend(const DecParams& params,
                              const ClPublicKey& bank_pk,
                              const RootHidingSpend& spend,
                              std::size_t rounds = kRootHidingRounds);

}  // namespace ppms
