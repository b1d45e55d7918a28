// MarketServer — the MA's deposit path restructured as a Click-style
// element graph: a staged pipeline of decode → verify → settle elements
// connected by bounded MPMC queues (server/queue.h) with admission
// control at the ingress edge.
//
// The protocol markets (core/ppmsdec.h) simulate the MA as direct
// function calls inside one protocol session; a production MA serving
// 10^5-10^6 concurrent SP sessions is a long-lived server whose deposit
// traffic arrives as independent envelopes. This module is that server:
//
//   submit(envelope) ──try_push──▶ [ingress q] ─▶ (decode) ─▶ [verify q]
//        │ full → kOverloaded                         │
//        ▼                                            ▼
//   admission control                          (verify, batched)
//                                                     │ shard by key
//                                     ┌───────────────┴──────────────┐
//                                     ▼                              ▼
//                               [settle q 0] ─▶ (settle 0) ... (settle S-1)
//                                                     │
//                                                     ▼
//                                        DecBank commit + VBank credit,
//                                        reply recorded, waiters fired
//
//  * decode — Envelope::deserialize (the PR 4 wire frame, so fault plans
//    and FaultyChannel feeds apply unchanged), idempotency check against
//    the server's IdempotencyStore, in-flight duplicate coalescing, and
//    request-payload parsing (decode_deposit_request, dec/bank.h) plus
//    the account-existence check. Malformed frames are answered
//    immediately and never consume verify/settle capacity.
//  * verify — pops one deposit, then greedily drains up to
//    verify_batch_max more without blocking, and verifies the whole
//    accumulation in arrival order through DecBank::verify_batch: the
//    t-independent certificate equations of deposits from UNRELATED
//    sessions fold into one randomized product of pairings, and every
//    deposit's GT statement rides in the same pairing-engine call
//    (dec/statement.h), which is where the pairing bill of the deposit
//    path amortizes across the whole market's traffic instead of one
//    SP's tick.
//  * settle — deposits shard by idempotency key onto per-shard queues;
//    each settle worker commits its stream through
//    DecBank::settle_verified (striped double-spend store) and credits
//    the fiat ledger. The reply is recorded in the IdempotencyStore
//    BEFORE waiters fire, so any later redelivery of the same key
//    replays the recorded outcome instead of re-settling —
//    at-least-once delivery in, exactly-once settlement out.
//
// Back-pressure: every inter-stage edge is a bounded queue pushed with
// the blocking discipline, so a saturated settle stage stalls verify,
// which stalls decode, which fills the ingress queue — and only there,
// at the admission edge, is load shed (MarketErrc::kOverloaded).
// Nothing buffers without bound and nothing accepted is dropped:
// shutdown() closes the stages in pipeline order and drains each one
// before joining its workers.
//
// Duplicate discipline (the FaultyChannel interaction PR 4's direct-call
// path never exercised): two copies of one envelope may be in flight
// concurrently — a retry racing a delayed original. The decode stage
// coalesces them under inflight_: the first copy proceeds, every later
// copy just parks its completion callback on the key. The settle stage
// records the reply and fires all parked waiters at once. A copy
// arriving after settlement hits the IdempotencyStore and replays.
// Either way the coin settles exactly once (tests/server/).
//
// Observability: stage latency histograms (server.stage.*), exact queue
// depth gauges (server.queue.*), admission/settle/batch counters —
// taxonomy in OBSERVABILITY.md, architecture tour in ARCHITECTURE.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dec/bank.h"
#include "market/epoch.h"
#include "market/faults.h"
#include "market/outcome.h"
#include "market/vbank.h"
#include "server/queue.h"
#include "storage/journal.h"

namespace ppms {

struct MarketServerConfig {
  std::size_t ingress_capacity = 4096;  ///< admission edge; full → reject
  std::size_t verify_capacity = 4096;   ///< decode → verify edge
  std::size_t settle_capacity = 1024;   ///< per settle shard
  std::size_t decode_threads = 1;
  std::size_t verify_threads = 2;
  std::size_t settle_shards = 2;        ///< one worker + queue per shard
  /// Verify batches grow greedily up to this size: a worker pops one
  /// deposit, then drains whatever else is queued without waiting.
  std::size_t verify_batch_max = 64;
  /// Optional durability: when set, the server attaches this journal to
  /// its DecBank, VBank and IdempotencyStore, and the settle stage wraps
  /// each deposit's three mutations (spend mark, credit, cached reply)
  /// in one JournalScope so they recover all-or-nothing. Null keeps the
  /// pure in-memory fast path. Must outlive the server.
  storage::LedgerJournal* journal = nullptr;
  /// Epoch-netting mode (market/epoch.h): accepted deposits ACCRUE per
  /// account instead of crediting the fiat ledger coin by coin; one net
  /// credit per account lands at close_epoch(). Double-spend protection
  /// is unchanged — serials still file and replies still cache in the
  /// settle stage, so a replayed coin is rejected mid-window and across
  /// window boundaries alike. The per-deposit JournalScope then carries
  /// a kEpochAccrue record where per-coin mode carries the kCredit.
  bool epoch_netting = false;
};

class MarketServer {
 public:
  /// Completion callback; runs once the deposit's outcome exists —
  /// settled, replayed, rejected at decode, or shed at admission (the
  /// one case where it runs synchronously inside submit). Must not throw
  /// and should not block — it usually executes inside a stage.
  using DoneFn = std::function<void(const SettleOutcome&)>;

  /// The server borrows the bank, ledger and clock (the MA owns them);
  /// they must outlive it. Worker threads start immediately. When the
  /// config carries a journal it is attached to all three stores here.
  MarketServer(const DecParams& params, DecBank& bank, VBank& vbank,
               LogicalScheduler& scheduler, MarketServerConfig config = {});
  ~MarketServer();  ///< runs shutdown()

  MarketServer(const MarketServer&) = delete;
  MarketServer& operator=(const MarketServer&) = delete;

  /// Admission-controlled asynchronous submit of one serialized Envelope
  /// whose payload is an encode_deposit_request frame (dec/bank.h). `done` is ALWAYS
  /// invoked exactly once: asynchronously with the settled/replayed/
  /// rejected outcome, or synchronously with a kOverloaded outcome when
  /// the ingress queue is saturated (or the server is shut down) — the
  /// client's cue to back off and retry. Returns whether the envelope
  /// was admitted into the pipeline.
  bool submit(Bytes envelope_wire, DoneFn done);

  /// Blocking convenience: submit and wait for the outcome (which may be
  /// the synchronous kOverloaded answer).
  SettleOutcome call(const Bytes& envelope_wire);

  /// Close the ingress, drain every stage in pipeline order, join all
  /// workers. Every deposit admitted before the close still settles and
  /// fires its callback. Idempotent; the destructor calls it.
  void shutdown();

  /// Close the current billing window (epoch-netting mode): one net
  /// VBank credit per account with pending accruals plus the kEpochMark
  /// anchor, committed under one JournalScope (market/epoch.h). Safe to
  /// call while settle workers run — accruals racing the close land in
  /// the next window whole. Meaningful only with epoch_netting set (a
  /// per-coin server has nothing pending; the call then just advances
  /// the window counter).
  EpochAccumulator::CloseStats close_epoch();

  const MarketServerConfig& config() const { return config_; }
  IdempotencyStore& store() { return store_; }
  EpochAccumulator& epochs() { return epochs_; }

 private:
  struct Ingress {
    Bytes wire;
    DoneFn done;
    std::chrono::steady_clock::time_point t0;
  };

  struct Deposit {
    Bytes idem_key;
    DepositRequest request;
    bool verified = false;
  };

  struct Waiter {
    DoneFn done;
    std::chrono::steady_clock::time_point t0;
  };

  void decode_loop();
  void verify_loop();
  void settle_loop(std::size_t shard);

  /// store_.record the serialized outcome under `key` (journaled when a
  /// journal is attached — call inside the deposit's JournalScope).
  void record_reply(const Bytes& key, const SettleOutcome& outcome);
  /// Fire every waiter parked on `key`.
  void fire_waiters(const Bytes& key, const SettleOutcome& outcome);
  /// record_reply + fire_waiters for the single-record decode rejects.
  void finish(const Bytes& key, const SettleOutcome& outcome);

  std::size_t shard_of(const Bytes& key) const;

  const DecParams& params_;
  DecBank& bank_;
  VBank& vbank_;
  LogicalScheduler& scheduler_;
  MarketServerConfig config_;

  IdempotencyStore store_;
  EpochAccumulator epochs_;  ///< pending window sums (epoch_netting)
  /// Keys currently traveling the pipeline → callbacks awaiting their
  /// reply. Guarded by inflight_mu_; see decode_loop/finish for the
  /// ordering that makes duplicate submissions settle exactly once.
  std::mutex inflight_mu_;
  std::map<Bytes, std::vector<Waiter>> inflight_;

  std::unique_ptr<BoundedQueue<Ingress>> ingress_;
  std::unique_ptr<BoundedQueue<Deposit>> verify_q_;
  std::vector<std::unique_ptr<BoundedQueue<Deposit>>> settle_qs_;

  std::vector<std::thread> decode_workers_;
  std::vector<std::thread> verify_workers_;
  std::vector<std::thread> settle_workers_;

  std::mutex shutdown_mu_;
  bool stopped_ = false;
};

}  // namespace ppms
