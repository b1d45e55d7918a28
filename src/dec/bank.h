// Bank-side DEC state: issuing certificates at withdrawal and accepting
// deposits with online double-spend detection.
//
// The paper's market administrator runs the bank, so — unlike classic
// offline e-cash — every deposit passes through here and double spends are
// *rejected*, not merely traced afterwards. Detection uses the revealed
// serial paths: spending a node, one of its ancestors, or one of its
// descendants always re-reveals a serial the bank has already filed.
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
#include <vector>

#include "dec/root_hiding.h"
#include "dec/spend.h"
#include "market/outcome.h"
#include "storage/journal.h"
#include "zkp/schnorr.h"

namespace ppms {

class ThreadPool;

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

  /// Verify the spend, check the double-spend database, file the serials.
  /// Returns the market-wide SettleOutcome shape (market/outcome.h):
  /// accepted with the coin value, or rejected with kSpendRejected /
  /// kDoubleSpend and a diagnostic.
  SettleOutcome deposit(const SpendBundle& bundle);

  /// Deposit a root-hiding spend (extension; see dec/root_hiding.h).
  /// Detection interplay with regular spends:
  ///  * hiding spends reveal serials from depth 1, so conflicts among
  ///    depth >= 1 nodes use the ordinary path rules;
  ///  * a depth-0 (whole-coin) regular deposit additionally files both
  ///    depth-1 child serials as consumed, and is itself rejected if a
  ///    child serial is already on file — this is what keeps root spends
  ///    and root-hiding spends of the same coin mutually exclusive even
  ///    though the latter never show S_0.
  SettleOutcome deposit_hiding(const RootHidingSpend& spend);

  /// Batch settlement path for one tick's pending deposits: verify every
  /// spend (see verify_batch), then commit the verified ones through the
  /// striped double-spend store in listed order — hiding spends first,
  /// then regular spends, matching the order the market's deposit
  /// scheduler files them. The result vector holds the hiding results
  /// first, then the regular ones.
  std::vector<SettleOutcome> deposit_batch(
      const std::vector<RootHidingSpend>& hiding,
      const std::vector<SpendBundle>& spends, ThreadPool* pool = nullptr);

  /// Verification half of deposit_batch, exposed for benchmarking and
  /// reuse: one pairing-engine call decides the t-independent certificate
  /// equations of the whole tick as one randomized product (scalars from
  /// the bank's own stream) and computes every member's GT statement
  /// alongside (dec/statement.h); the per-spend remainder then runs on
  /// those statements, in parallel on `pool` (inline when null). Flags are
  /// ordered hiding-first, like deposit_batch results, and match the
  /// per-deposit verifiers exactly.
  std::vector<bool> verify_batch(const std::vector<RootHidingSpend>& hiding,
                                 const std::vector<SpendBundle>& spends,
                                 ThreadPool* pool = nullptr) const;

  /// Settlement half of deposit() for a spend the caller has ALREADY
  /// verified (verify_spend / verify_batch): double-spend check + serial
  /// filing through the striped store, no re-verification. The staged
  /// market server (server/server.h) runs verification as its own
  /// pipeline stage — batched across unrelated sessions — and its settle
  /// shards commit through these. Calling them on an unverified spend
  /// forfeits the scheme's soundness; nothing here re-checks the proofs.
  SettleOutcome settle_verified(const SpendBundle& bundle);
  SettleOutcome settle_verified_hiding(const RootHidingSpend& spend);

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

  /// Double-spend check + serial filing for an already-verified spend.
  SettleOutcome commit_regular(const SpendBundle& bundle);
  SettleOutcome commit_hiding(const RootHidingSpend& spend);

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
  /// lock: verify_batch is const and may race with other bank calls.
  mutable std::mutex batch_rng_mu_;
  mutable SecureRandom batch_rng_;
  mutable std::array<Shard, kShards> shards_;
  storage::LedgerJournal* journal_ = nullptr;
};

}  // namespace ppms
