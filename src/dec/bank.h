// Bank-side DEC state: issuing certificates at withdrawal and accepting
// deposits with online double-spend detection.
//
// The paper's market administrator runs the bank, so — unlike classic
// offline e-cash — every deposit passes through here and double spends are
// *rejected*, not merely traced afterwards. Detection uses the revealed
// serial paths: spending a node, one of its ancestors, or one of its
// descendants always re-reveals a serial the bank has already filed.
//
// Deposit surface: both spend kinds travel as one DepositSpend. There is
// one verification path, verify_batch (any mix of kinds, flags in input
// order), and one commit path, settle_verified (an overload per kind);
// deposit() is a verified batch of one followed by its commit.
//
// Thread-safe: deposits and withdrawals may arrive concurrently from the
// parallel market driver. The serial store is striped: each (depth,
// serial) key hashes to one of kShards shards with its own mutex, and a
// deposit locks only the (sorted) set of stripes its path touches, so
// deposits of unrelated coins never serialize on a global lock.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "dec/root_hiding.h"
#include "dec/spend.h"
#include "market/outcome.h"
#include "storage/journal.h"
#include "zkp/schnorr.h"

namespace ppms {

/// One deposited coin: a regular spend (reveals S_0..S_d) or a
/// root-hiding spend (reveals S_1..S_d; dec/root_hiding.h).
using DepositSpend = std::variant<SpendBundle, RootHidingSpend>;

/// The per-coin deposit request frame: the depositor's account id, the
/// spend kind (true = root-hiding) and the serialized spend. The staged
/// market server (server/server.h) and the faulty-transport market
/// (PpmsDecMarket) speak it, so the same client code feeds either.
Bytes encode_deposit_request(const std::string& aid, bool hiding,
                             const Bytes& coin_wire);

struct DepositRequest {
  std::string aid;
  DepositSpend spend;
};

/// Inverse of encode_deposit_request. Throws MarketError
/// (kMalformedMessage) on trailing bytes; a spend body that does not
/// parse throws whatever its deserializer throws.
DepositRequest decode_deposit_request(const DecParams& params,
                                      const Bytes& payload);

class DecBank {
 public:
  DecBank(DecParams params, SecureRandom& rng);

  const DecParams& params() const { return params_; }
  const ClPublicKey& public_key() const { return keys_.pk; }

  /// Anonymous withdrawal: the requester presents a commitment M = g^t
  /// plus a PoK of t; the bank signs blindly. Returns nullopt when the
  /// proof fails. `context` must match the one the prover used.
  std::optional<ClSignature> withdraw(const EcPoint& commitment,
                                      const SchnorrProof& pok,
                                      const Bytes& context,
                                      SecureRandom& rng);

  /// The per-coin deposit: verify_batch of one, then settle_verified.
  /// Returns the market-wide SettleOutcome shape (market/outcome.h):
  /// accepted with the coin value, or rejected with kSpendRejected /
  /// kDoubleSpend and a diagnostic. Unlike settle_verified it can never
  /// file an unverified spend.
  SettleOutcome deposit(const DepositSpend& spend);

  /// Verify a batch of deposited spends, either kind, in any order. One
  /// pairing-engine call decides every member's t-independent certificate
  /// equation as one randomized product (scalars from the bank's own
  /// stream) and computes every member's GT statement alongside
  /// (dec/statement.h). The remainder then runs on those statements: one
  /// lockstep pass decides every regular member's equality proof (GT
  /// membership of A1 and the proof equation for all members in step on
  /// the lane kernels), and each root-hiding member runs its own
  /// cut-and-choose check. Flags are in input order and match
  /// verify_spend / verify_root_hiding_spend member by member. The two
  /// stages are timed as the histograms dec.verify.engine and
  /// dec.verify.remainder.
  std::vector<bool> verify_batch(
      const std::vector<const DepositSpend*>& spends) const;

  /// Double-spend check + serial filing through the striped store for a
  /// spend the caller has ALREADY verified (verify_batch), with no
  /// re-verification: calling these on an unverified spend forfeits the
  /// scheme's soundness. Committing a batch's verified members in listed
  /// order resolves intra-batch double spends exactly as the same
  /// sequence of deposit() calls would.
  ///
  /// Detection: spending a node, one of its ancestors or one of its
  /// descendants re-reveals a filed serial. Root-hiding spends reveal
  /// serials from depth 1 only, so a depth-0 (whole-coin) regular spend
  /// also files both depth-1 child serials as spent, and is rejected if
  /// either is already on file — this keeps root spends and root-hiding
  /// spends of one coin mutually exclusive although the latter never
  /// show S_0.
  SettleOutcome settle_verified(const SpendBundle& bundle);
  SettleOutcome settle_verified(const RootHidingSpend& spend);

  /// Number of serials on file (test/diagnostics).
  std::size_t recorded_serials() const;

  /// Route every future serial filing through `journal` (null detaches):
  /// an accepted commit appends one kDecSpendMark record — all the keys
  /// it revealed and all it marked spent — while the stripe locks are
  /// held, so the WAL order equals the store's commit order.
  void attach_journal(storage::LedgerJournal* journal) { journal_ = journal; }

  /// Visit every revealed serial (and whether it is also a spent node)
  /// in shard-then-key order, one stripe lock at a time — snapshot
  /// iteration. Keep `fn` short and never call back into this bank.
  void for_each_serial(
      const std::function<void(std::size_t depth, const Bytes& serial,
                               bool spent)>& fn) const;

  /// Recovery-only: re-file one serial without checks or journaling.
  void restore_serial(std::size_t depth, Bytes serial, bool spent);

 private:
  using SerialKey = std::pair<std::size_t, Bytes>;  // (depth, serial)

  static constexpr std::size_t kShards = 16;

  struct Shard {
    mutable std::mutex mu;
    std::set<SerialKey> revealed;     ///< serials on any accepted path
    std::set<SerialKey> spent_nodes;  ///< terminal node of each spend
  };

  SerialKey key_of(std::size_t depth, const Bigint& serial) const;
  static std::size_t shard_of(const SerialKey& key);

  /// Append the kDecSpendMark record for an accepted commit (call with
  /// the relevant stripes locked; no-op without a journal).
  void journal_spend_mark(const std::vector<SerialKey>& revealed,
                          const std::vector<SerialKey>& spent);

  /// Lock the (deduplicated, ascending) stripes the keys hash to.
  std::vector<std::unique_lock<std::mutex>> lock_stripes(
      const std::vector<SerialKey>& keys);

  bool revealed_contains(const SerialKey& key) const;
  bool spent_contains(const SerialKey& key) const;
  void file_revealed(const SerialKey& key);
  void file_spent(const SerialKey& key);

  DecParams params_;
  ClKeyPair keys_;
  /// Verifier-owned randomness for batch-verification scalars (seeded off
  /// the construction stream so replays stay deterministic), with its own
  /// lock: verify_batch is const and may race with other bank calls. Each
  /// call holds the lock only to seed a call-local stream, so concurrent
  /// batches never serialize their pairing work on it.
  mutable std::mutex batch_rng_mu_;
  mutable SecureRandom batch_rng_;
  mutable std::array<Shard, kShards> shards_;
  storage::LedgerJournal* journal_ = nullptr;
};

}  // namespace ppms
