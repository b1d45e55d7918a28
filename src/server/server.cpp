#include "server/server.h"

#include <chrono>
#include <future>
#include <utility>

#include "market/error.h"
#include "obs/metrics.h"
#include "util/counters.h"

namespace ppms {

namespace {

// Registry handles for the server.* series, resolved once. Queue depth
// gauges are owned by the queues themselves (per-shard settle gauges are
// resolved in the ctor because their names depend on the config).
struct ServerMetrics {
  obs::Counter* submitted;
  obs::Counter* rejected;        // admission control (kOverloaded)
  obs::Counter* malformed;       // frames rejected at decode
  obs::Counter* idem_replays;    // replies served from the store
  obs::Counter* idem_joined;     // duplicates coalesced while in flight
  obs::Counter* verify_batches;  // cross-session batch verifications
  obs::Counter* verify_coins;    // deposits those batches covered
  obs::Counter* accepted;
  obs::Counter* settle_rejected;
  obs::Histogram* decode_lat;
  obs::Histogram* verify_lat;    // per batch
  obs::Histogram* settle_lat;
  obs::Histogram* request_lat;   // submit → reply, end to end

  ServerMetrics()
      : submitted(&obs::counter("server.ingress.submitted")),
        rejected(&obs::counter("server.ingress.rejected")),
        malformed(&obs::counter("server.decode.malformed")),
        idem_replays(&obs::counter("server.idem.replays")),
        idem_joined(&obs::counter("server.idem.joined")),
        verify_batches(&obs::counter("server.verify.batches")),
        verify_coins(&obs::counter("server.verify.coins")),
        accepted(&obs::counter("server.settle.accepted")),
        settle_rejected(&obs::counter("server.settle.rejected")),
        decode_lat(&obs::histogram("server.stage.decode")),
        verify_lat(&obs::histogram("server.stage.verify")),
        settle_lat(&obs::histogram("server.stage.settle")),
        request_lat(&obs::histogram("server.request")) {}
};

ServerMetrics& metrics() {
  static ServerMetrics m;
  return m;
}

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

MarketServer::MarketServer(const DecParams& params, DecBank& bank,
                           VBank& vbank, LogicalScheduler& scheduler,
                           MarketServerConfig config)
    : params_(params),
      bank_(bank),
      vbank_(vbank),
      scheduler_(scheduler),
      config_(config) {
  // Every stage needs at least one worker and every edge a slot; a
  // zero in the config means "smallest", not "none".
  config_.decode_threads = std::max<std::size_t>(1, config_.decode_threads);
  config_.verify_threads = std::max<std::size_t>(1, config_.verify_threads);
  config_.settle_shards = std::max<std::size_t>(1, config_.settle_shards);
  config_.verify_batch_max =
      std::max<std::size_t>(1, config_.verify_batch_max);

  // Durability hook-up: every mutation the pipeline performs from here
  // on — serial filings, credits, accruals, cached replies — flows into
  // the WAL.
  if (config_.journal != nullptr) {
    bank_.attach_journal(config_.journal);
    vbank_.attach_journal(config_.journal);
    store_.attach_journal(config_.journal);
    epochs_.attach_journal(config_.journal);
  }

  ingress_ = std::make_unique<BoundedQueue<Ingress>>(
      config_.ingress_capacity, &obs::gauge("server.queue.ingress"));
  verify_q_ = std::make_unique<BoundedQueue<Deposit>>(
      config_.verify_capacity, &obs::gauge("server.queue.verify"));
  settle_qs_.reserve(config_.settle_shards);
  for (std::size_t s = 0; s < config_.settle_shards; ++s) {
    settle_qs_.push_back(std::make_unique<BoundedQueue<Deposit>>(
        config_.settle_capacity,
        &obs::gauge("server.queue.settle." + std::to_string(s))));
  }

  for (std::size_t i = 0; i < config_.decode_threads; ++i) {
    decode_workers_.emplace_back([this] { decode_loop(); });
  }
  for (std::size_t i = 0; i < config_.verify_threads; ++i) {
    verify_workers_.emplace_back([this] { verify_loop(); });
  }
  for (std::size_t s = 0; s < config_.settle_shards; ++s) {
    settle_workers_.emplace_back([this, s] { settle_loop(s); });
  }
}

MarketServer::~MarketServer() { shutdown(); }

bool MarketServer::submit(Bytes envelope_wire, DoneFn done) {
  Ingress item{std::move(envelope_wire), std::move(done),
               std::chrono::steady_clock::now()};
  if (!ingress_->try_push(std::move(item))) {
    metrics().rejected->add();
    // Shed load with an answer, not an exception: overload is a steady-
    // state outcome under pressure. The callback runs synchronously (the
    // pipeline never saw the envelope, so nothing else ever will).
    item.done(SettleOutcome::overload(
        "MarketServer: ingress queue saturated"));
    return false;
  }
  metrics().submitted->add();
  return true;
}

SettleOutcome MarketServer::call(const Bytes& envelope_wire) {
  auto promise = std::make_shared<std::promise<SettleOutcome>>();
  std::future<SettleOutcome> fut = promise->get_future();
  submit(envelope_wire, [promise](const SettleOutcome& outcome) {
    promise->set_value(outcome);
  });
  return fut.get();
}

std::size_t MarketServer::shard_of(const Bytes& key) const {
  // FNV-1a over the key bytes; idem keys are SHA-256 digests for honest
  // clients but any byte string shards fine.
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : key) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h % settle_qs_.size();
}

void MarketServer::decode_loop() {
  ScopedRole as_ma(Role::Admin);
  while (auto in = ingress_->pop()) {
    obs::ScopedTimer timer(*metrics().decode_lat);

    // Frame parse. A corrupted or truncated envelope carries no
    // trustworthy idempotency key, so it is answered directly and never
    // recorded — exactly how the reliable link treats it: the client
    // retries and the retry is a fresh delivery.
    Envelope env;
    try {
      env = Envelope::deserialize(in->wire);
    } catch (const MarketError& e) {
      metrics().malformed->add();
      in->done(SettleOutcome::rejected(e.code(), e.what()));
      continue;
    }

    // Idempotency + in-flight coalescing. Order matters: the in-flight
    // map is checked and updated under its lock BEFORE the store, and
    // finish() records to the store before clearing the map, so a
    // duplicate can never slip between "not yet settled" and "already
    // forgotten" and settle twice.
    {
      std::unique_lock lock(inflight_mu_);
      const auto it = inflight_.find(env.idem_key);
      if (it != inflight_.end()) {
        it->second.push_back(Waiter{std::move(in->done), in->t0});
        metrics().idem_joined->add();
        continue;
      }
      if (const auto cached = store_.find(env.idem_key)) {
        lock.unlock();
        metrics().idem_replays->add();
        metrics().request_lat->observe(elapsed_us(in->t0));
        in->done(SettleOutcome::replay_of(*cached));
        continue;
      }
      inflight_.emplace(env.idem_key,
                        std::vector<Waiter>{{std::move(in->done), in->t0}});
    }

    // Request parse: account, spend kind, spend body. Failures here have
    // a valid key, so they finish through the store like any reply — a
    // redelivered garbage payload replays the rejection instead of
    // re-parsing.
    Deposit dep;
    dep.idem_key = env.idem_key;
    try {
      dep.request = decode_deposit_request(params_, env.payload);
      if (!vbank_.has_account(dep.request.aid)) {
        throw MarketError(MarketErrc::kUnknownAccount,
                          "deposit: unknown account " + dep.request.aid);
      }
    } catch (const MarketError& e) {
      metrics().malformed->add();
      finish(dep.idem_key, SettleOutcome::rejected(e.code(), e.what()));
      continue;
    } catch (const std::exception& e) {
      metrics().malformed->add();
      finish(dep.idem_key, SettleOutcome::rejected(
                               MarketErrc::kMalformedMessage, e.what()));
      continue;
    }

    // Blocking push: back-pressure from verify propagates to the ingress
    // edge through this worker standing still. push() only fails once
    // shutdown closed the edge; admitted work still gets an answer.
    if (!verify_q_->push(std::move(dep))) {
      finish(env.idem_key,
             SettleOutcome::rejected(MarketErrc::kOverloaded,
                                     "server shutting down"));
    }
  }
}

void MarketServer::verify_loop() {
  ScopedRole as_ma(Role::Admin);
  while (true) {
    auto first = verify_q_->pop();
    if (!first) return;

    // Greedy accumulation: whatever unrelated sessions have queued since
    // the last batch rides in this one. No linger timer — under light
    // load batches are small and latency stays low; under heavy load the
    // queue is never empty and batches reach verify_batch_max, which is
    // when amortizing the pairing product matters.
    std::vector<Deposit> batch;
    batch.reserve(config_.verify_batch_max);
    batch.push_back(std::move(*first));
    while (batch.size() < config_.verify_batch_max) {
      auto more = verify_q_->try_pop();
      if (!more) break;
      batch.push_back(std::move(*more));
    }

    obs::ScopedTimer timer(*metrics().verify_lat);

    // One engine call for the whole batch; flags come back in arrival
    // order.
    std::vector<const DepositSpend*> spends;
    spends.reserve(batch.size());
    for (const Deposit& dep : batch) spends.push_back(&dep.request.spend);
    const std::vector<bool> ok = bank_.verify_batch(spends);
    metrics().verify_batches->add();
    metrics().verify_coins->add(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) batch[i].verified = ok[i];

    for (Deposit& dep : batch) {
      const Bytes key = dep.idem_key;  // survives the move below
      const std::size_t shard = shard_of(key);
      if (!settle_qs_[shard]->push(std::move(dep))) {
        finish(key, SettleOutcome::rejected(MarketErrc::kOverloaded,
                                            "server shutting down"));
      }
    }
  }
}

void MarketServer::settle_loop(std::size_t shard) {
  ScopedRole as_ma(Role::Admin);
  BoundedQueue<Deposit>& q = *settle_qs_[shard];
  while (auto item = q.pop()) {
    obs::ScopedTimer timer(*metrics().settle_lat);
    SettleOutcome outcome;
    {
      // One transaction per deposit: the spend marks, the fiat credit and
      // the cached reply all carry this scope's txn id, and recovery
      // replays them all-or-nothing — a crash between the serial filing
      // and the credit can never recover a half-settled coin. With a null
      // journal the scope is a no-op and this is the in-memory fast path.
      storage::JournalScope txn(config_.journal);
      if (!item->verified) {
        outcome = SettleOutcome::rejected(MarketErrc::kSpendRejected,
                                          "spend verification failed");
      } else {
        try {
          outcome = std::visit(
              [this](const auto& s) { return bank_.settle_verified(s); },
              item->request.spend);
          if (outcome.accepted()) {
            // Epoch mode swaps the per-coin credit for an accrual into
            // the current billing window; the money reaches the fiat
            // ledger as one net credit at close_epoch(). Everything
            // else — serial filing above, reply caching below — is
            // identical, so double-spend and idempotency guarantees
            // don't depend on the settlement mode.
            if (config_.epoch_netting) {
              epochs_.accrue(item->request.aid, outcome.value,
                             scheduler_.now());
            } else {
              vbank_.credit(item->request.aid, outcome.value,
                            scheduler_.now());
            }
          }
        } catch (const MarketError& e) {
          outcome = SettleOutcome::rejected(e.code(), e.what());
        }
      }
      record_reply(item->idem_key, outcome);
    }
    // Waiters fire only after the scope closed, i.e. after the txn's
    // commit marker is in the WAL: once a client observes an outcome, a
    // crash-recovered server observes the same one.
    (outcome.accepted() ? metrics().accepted : metrics().settle_rejected)
        ->add();
    fire_waiters(item->idem_key, outcome);
  }
}

EpochAccumulator::CloseStats MarketServer::close_epoch() {
  return epochs_.close(vbank_, scheduler_.now());
}

void MarketServer::record_reply(const Bytes& key,
                                const SettleOutcome& outcome) {
  store_.record(key, outcome.serialize());
}

void MarketServer::fire_waiters(const Bytes& key,
                                const SettleOutcome& outcome) {
  std::vector<Waiter> waiters;
  {
    std::lock_guard lock(inflight_mu_);
    const auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      waiters = std::move(it->second);
      inflight_.erase(it);
    }
  }
  for (Waiter& waiter : waiters) {
    metrics().request_lat->observe(elapsed_us(waiter.t0));
    waiter.done(outcome);
  }
}

void MarketServer::finish(const Bytes& key, const SettleOutcome& outcome) {
  // Record first, clear the in-flight entry second: a duplicate arriving
  // between the two sees either the in-flight entry (joins, gets fired
  // below... or already fired — then its waiter list is fresh and it
  // re-finishes off the store) or the recorded reply. Never neither.
  record_reply(key, outcome);
  fire_waiters(key, outcome);
}

void MarketServer::shutdown() {
  std::lock_guard lock(shutdown_mu_);
  if (stopped_) return;
  stopped_ = true;
  // Close and drain in pipeline order: each stage's workers exit only
  // once their input is closed AND empty, so everything admitted before
  // the close flows through to its reply.
  ingress_->close();
  for (std::thread& t : decode_workers_) t.join();
  verify_q_->close();
  for (std::thread& t : verify_workers_) t.join();
  for (auto& q : settle_qs_) q->close();
  for (std::thread& t : settle_workers_) t.join();
  // Everything accepted got its reply — make it durable before the
  // journal's owner tears the file down or snapshots over it.
  if (config_.journal != nullptr) config_.journal->sync();
}

}  // namespace ppms
