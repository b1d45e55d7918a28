// DEC system parameters: the Cunningham-chain group tower plus the pairing
// group, produced by Setup(DEC) (paper Section III-C1 / VI-A).
//
// A coin is a binary tree of L+1 levels (root value 2^L). Serial numbers
// live in a tower of cyclic groups
//     G_1 ⊂ Z*_{o_2}, G_2 ⊂ Z*_{o_3}, ..., |G_i| = o_i,  o_{i+1} = 2·o_i + 1
// over a first-kind Cunningham chain o_1 < o_2 < ... < o_{L+2}. The chain
// search is the expensive part of setup the paper's Fig 2 measures.
//
// The pairing group order is chosen equal to o_1 so that a wallet secret
// t ∈ Z_{o_1} simultaneously indexes the coin's root serial g_1^t (in the
// tower) and the CL certificate commitment g^t (on the curve); the spend
// proof then reduces to an equality-of-discrete-logs statement.
#pragma once

#include <memory>
#include <vector>

#include "bigint/cunningham.h"
#include "clsig/clsig.h"
#include "zkp/group.h"

namespace ppms {

class DecSession;

/// How Setup acquires the Cunningham chain.
enum class ChainSource {
  kSearch,  ///< genuine enumeration search (what Fig 2 times; slow at L>=7)
  kTable,   ///< published minimal chains, Miller-Rabin re-verified
};

struct DecParams {
  std::size_t L = 0;          ///< tree levels; root coin value 2^L
  CunninghamChain chain;      ///< o_1 ... o_{L+2}
  TypeAParams pairing;        ///< curve group of order r = o_1
  std::vector<ZnGroup> tower; ///< tower[d] hosts depth-d serials:
                              ///< subgroup of Z*_{o_{d+2}} of order o_{d+1}

  /// Coin value of a node at `depth` (root depth 0): 2^(L - depth).
  std::uint64_t node_value(std::size_t depth) const;

  /// Root coin denomination 2^L.
  std::uint64_t root_value() const { return node_value(0); }

  /// Persist the full parameter set. The paper recommends running the
  /// expensive Setup offline and distributing its output (Section VI-A);
  /// this is that output's wire format.
  Bytes serialize() const;

  /// Load and structurally validate persisted parameters: chain relation
  /// o_{i+1} = 2·o_i + 1, primality of every chain element, pairing
  /// cofactor relation (r·h = p + 1 with r ∤ h, from TypeAParams),
  /// tower moduli/orders and generator orders. Throws
  /// std::invalid_argument on any inconsistency, so a tampered parameter
  /// file cannot produce a subtly broken market.
  static DecParams deserialize(const Bytes& data, SecureRandom& rng);

  /// Session-lifetime pairing state (GtGroup + fixed-argument Miller
  /// tables; see dec/session.h), built lazily on first use and shared by
  /// copies made afterwards. Thread-safe.
  const DecSession& session() const;

 private:
  mutable std::shared_ptr<const DecSession> session_;
};

/// Run Setup(DEC) for a given tree height. `pairing_bits` sizes the curve
/// field; the chain is found per `source` (kSearch may take minutes for
/// L >= 6 and throws std::runtime_error past `search_budget` candidates).
DecParams dec_setup(SecureRandom& rng, std::size_t L, ChainSource source,
                    std::size_t pairing_bits = 192,
                    std::uint64_t search_budget = 200000000);

}  // namespace ppms
