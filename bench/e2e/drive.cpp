// Measured phase: the corpus through MarketServer::submit, round after
// round, with every output checked.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include <sched.h>

#include "dec/bank.h"
#include "e2e.h"
#include "market/epoch.h"
#include "market/scheduler.h"
#include "market/vbank.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "storage/idempotency.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"

namespace e2e {

using namespace ppms;

namespace {

struct Request {
  std::size_t env = 0;  ///< corpus envelope index
  bool dup = false;     ///< redelivery of an envelope already sent
};

/// Distance, in original requests, between an envelope and its "after
/// settlement" redelivery: twice the closed-loop window, so the original
/// has almost always been answered.
constexpr std::size_t kSettledLag = 2 * kOutstanding;

/// Originals in corpus order. With dup_share s, each original is followed
/// by an in-flight redelivery (sent right after it, so it is coalesced)
/// with probability s/(1−s)/2, and redelivered kSettledLag originals later
/// (so it is replayed from the store) with the same probability.
std::vector<Request> make_schedule(std::size_t n, double dup_share,
                                   std::uint64_t seed) {
  std::vector<Request> out;
  SecureRandom rng(seed ^ 0x647570ull);
  constexpr std::uint64_t kScale = 1u << 20;
  const auto gate = static_cast<std::uint64_t>(
      dup_share / (1.0 - dup_share) / 2.0 * static_cast<double>(kScale));
  std::deque<std::pair<std::size_t, std::size_t>> deferred;  // (due, env)
  for (std::size_t i = 0; i < n; ++i) {
    while (!deferred.empty() && deferred.front().first <= i) {
      out.push_back({deferred.front().second, true});
      deferred.pop_front();
    }
    out.push_back({i, false});
    if (rng.uniform(kScale) < gate) out.push_back({i, true});
    if (rng.uniform(kScale) < gate) deferred.push_back({i + kSettledLag, i});
  }
  for (const auto& d : deferred) out.push_back({d.second, true});
  return out;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t counter_value(const char* name) {
  return obs::counter(name).value();
}

/// One round: fresh stores and server, the schedule driven through it,
/// then every check. Results accumulate into `acc` when `timed`.
void run_round(const Workload& w, const Corpus& corpus,
               const std::vector<Request>& sched, std::uint64_t seed,
               const std::string& dir, const Cpus& cpus, bool timed,
               DriveResult& acc, Checks& checks) {
  const std::size_t n = sched.size();

  // ---- stores, built outside the timed window -----------------------
  SecureRandom bank_rng(bank_seed(seed));
  DecBank bank(corpus.params, bank_rng);
  VBank vbank;
  LogicalScheduler clock;
  storage::DurableLedgerOptions dopt;
  dopt.journal.sync = w.sync;
  std::unique_ptr<storage::DurableLedger> ledger;
  MarketServerConfig config;
  config.epoch_netting = w.epoch;
  if (w.durable) {
    fresh_dir(dir);
    ledger = std::make_unique<storage::DurableLedger>(dir, dopt);
    vbank.attach_journal(&ledger->journal());
    config.journal = &ledger->journal();
  }
  for (std::size_t i = 0; i < corpus.aids.size(); ++i) {
    const std::string aid = vbank.open_account("e2e-sp-" + std::to_string(i));
    checks.expect(aid == corpus.aids[i], "accounts are deterministic",
                  aid + " != " + corpus.aids[i]);
  }

  std::vector<SettleOutcome> outcome(n);
  std::vector<Clock::time_point> t_ref(n), t_done(n);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t outstanding = 0, completed = 0;
  bool abort = false;
  std::vector<double> close_ms;
  const std::uint64_t fsyncs0 = counter_value("storage.journal.fsyncs");
  obs::Gauge& verify_depth = obs::gauge("server.queue.verify");

  // Server threads inherit this thread's CPU; the generator then moves.
  auto server = std::make_unique<MarketServer>(corpus.params, bank, vbank,
                                               clock, config);
  run_on(cpus.client);

  // ---- timed window -------------------------------------------------
  const auto t0 = Clock::now();
  std::thread closer;
  if (w.epoch) {
    closer = std::thread([&] {
      run_on(cpus.server);  // closing is the MA's work
      for (std::size_t k = 1; k < kEpochWindows; ++k) {
        {
          std::unique_lock lock(mu);
          cv.wait(lock, [&] {
            return abort || completed >= k * n / kEpochWindows;
          });
          if (abort) return;
        }
        const auto c0 = Clock::now();
        server->close_epoch();
        close_ms.push_back(seconds_between(c0, Clock::now()) * 1e3);
      }
    });
  }

  const auto period = std::chrono::duration<double>(
      w.rate > 0 ? 1.0 / w.rate : 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (w.rate > 0) {
      t_ref[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                          period * static_cast<double>(i));
      std::this_thread::sleep_until(t_ref[i]);
      if (timed) {
        acc.late_ms.push_back(seconds_between(t_ref[i], Clock::now()) * 1e3);
      }
    } else {
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return outstanding < kOutstanding; });
      t_ref[i] = Clock::now();
    }
    if (timed) {
      acc.peak_verify_queue = std::max(acc.peak_verify_queue,
                                       verify_depth.value());
    }
    {
      std::lock_guard lock(mu);
      ++outstanding;
    }
    server->submit(corpus.envelopes[sched[i].env],
                   [&, i](const SettleOutcome& o) {
                     t_done[i] = Clock::now();
                     outcome[i] = o;
                     {
                       std::lock_guard lock(mu);
                       --outstanding;
                       ++completed;
                     }
                     cv.notify_all();
                   });
  }
  bool answered = false;
  {
    std::unique_lock lock(mu);
    answered = cv.wait_for(lock, std::chrono::seconds(120),
                           [&] { return completed == n; });
    if (!answered) abort = true;
  }
  cv.notify_all();
  if (closer.joinable()) closer.join();
  if (w.epoch && answered) {
    const auto c0 = Clock::now();
    server->close_epoch();
    close_ms.push_back(seconds_between(c0, Clock::now()) * 1e3);
  }
  const auto t_end = Clock::now();
  run_on(cpus.server);

  // ---- checks, outside the timed window -----------------------------
  checks.expect(answered, "every request is answered",
                std::to_string(completed) + " of " + std::to_string(n));
  if (!answered) {
    checks.requests_failed += n - completed;
    return;  // the server's destructor drains what is still in flight
  }

  std::vector<const SettleOutcome*> first(corpus.envelopes.size(), nullptr);
  std::size_t originals = 0, accepted = 0, dup_ok = 0, failed = 0;
  std::uint64_t accepted_value = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const SettleOutcome& o = outcome[i];
    const std::size_t env = sched[i].env;
    if (!sched[i].dup) {
      ++originals;
      first[env] = &o;
      if (o.status == SettleStatus::kAccepted &&
          o.value == corpus.coin_value) {
        ++accepted;
        accepted_value += o.value;
      } else {
        ++failed;
      }
    } else {
      const SettleOutcome* f = first[env];
      if (f != nullptr && o.accepted() && o.value == f->value &&
          o.errc == f->errc && o.reason == f->reason) {
        ++dup_ok;
      } else {
        ++failed;
      }
    }
  }
  checks.expect(accepted == originals, "accepted == corpus size",
                std::to_string(accepted) + " of " + std::to_string(originals));
  checks.expect(dup_ok == n - originals,
                "duplicates are replayed byte-identical",
                std::to_string(dup_ok) + " of " +
                    std::to_string(n - originals));
  checks.requests_failed += failed;

  for (const Bytes& env : corpus.resubmits) {
    const SettleOutcome o = server->call(env);
    checks.expect(o.status == SettleStatus::kRejected &&
                      o.errc == MarketErrc::kDoubleSpend,
                  "resubmission under a fresh identity is a double spend",
                  settle_status_name(o.status) + std::string(" ") + o.reason);
  }
  if (w.epoch) {
    checks.expect(server->epochs().pending_total() == 0,
                  "nothing pending after the final close",
                  std::to_string(server->epochs().pending_total()));
    checks.expect(close_ms.size() == kEpochWindows, "every window closes",
                  std::to_string(close_ms.size()));
  }
  server->shutdown();

  std::uint64_t ledger_total = 0;
  for (const std::string& aid : corpus.aids) {
    ledger_total += static_cast<std::uint64_t>(vbank.balance(aid));
  }
  checks.expect(ledger_total == accepted_value,
                "ledger total == accepted value",
                std::to_string(ledger_total) + " != " +
                    std::to_string(accepted_value));

  double recovery_s = 0;
  std::uint64_t recovered = 0, wal_bytes = 0;
  if (w.durable) {
    const Bytes live = storage::ledger_state_digest(vbank, bank,
                                                    server->store());
    const std::uint64_t live_epoch = server->epochs().last_closed();
    wal_bytes = std::filesystem::file_size(ledger->wal_path());
    VBank r_vbank;
    SecureRandom r_rng(bank_seed(seed));
    DecBank r_bank(corpus.params, r_rng);
    IdempotencyStore r_idem;
    EpochAccumulator r_epochs;
    const auto r0 = Clock::now();
    storage::DurableLedger reopened(dir, dopt);
    const storage::RecoveryStats stats = reopened.recover(
        r_vbank, r_bank, r_idem, w.epoch ? &r_epochs : nullptr);
    recovery_s = seconds_between(r0, Clock::now());
    recovered = stats.applied_records;
    checks.expect(storage::ledger_state_digest(r_vbank, r_bank, r_idem) ==
                      live,
                  "recovered ledger digest == live digest", dir);
    if (w.epoch) {
      checks.expect(stats.last_epoch == live_epoch &&
                        r_epochs.pending_total() == 0,
                    "epoch watermark restored",
                    std::to_string(stats.last_epoch) + " vs " +
                        std::to_string(live_epoch));
    }
  }

  if (!timed) return;
  ++acc.rounds;
  acc.requests += n;
  acc.new_accepted += accepted;
  acc.dup_answers += dup_ok;
  const double wall = seconds_between(t0, t_end);
  acc.timed_s += wall;
  acc.round_dps.push_back(static_cast<double>(accepted) / wall);
  std::vector<double> latency_ms;
  for (std::size_t i = 0; i < n; ++i) {
    latency_ms.push_back(seconds_between(t_ref[i], t_done[i]) * 1e3);
  }
  acc.round_iqm_ms.push_back(interquartile_mean(latency_ms));
  acc.latency_ms.insert(acc.latency_ms.end(), latency_ms.begin(),
                        latency_ms.end());
  acc.close_ms.insert(acc.close_ms.end(), close_ms.begin(), close_ms.end());
  if (w.durable) {
    acc.recovery_s.push_back(recovery_s);
    acc.wal_bytes += wal_bytes;
    acc.recovered_records += recovered;
  }
  acc.fsyncs += counter_value("storage.journal.fsyncs") - fsyncs0;
}

/// Spinners in the lowest scheduling class (SCHED_IDLE) on the server and
/// client CPUs for the measured phase. A CPU with nothing to run is handed
/// back to the host, and waking it again costs a host-scheduling delay
/// (about 1.5 ms on a shared host, varying with its load) that would land
/// in every request's latency. The spinner keeps both CPUs awake; any
/// server or generator thread preempts it at once.
class KeepAwake {
 public:
  explicit KeepAwake(const Cpus& cpus) {
    threads_.emplace_back([this, &cpus] { spin(cpus.server); });
    if (cpus.client != cpus.server) {
      threads_.emplace_back([this, &cpus] { spin(cpus.client); });
    }
  }
  ~KeepAwake() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  void spin(int cpu) {
    run_on(cpu);
    sched_param param{};
    // A spinner that cannot drop to SCHED_IDLE would take the CPU from
    // the threads it is meant to serve.
    if (sched_setscheduler(0, SCHED_IDLE, &param) != 0) return;
    while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace

Cpus place_process() {
  cpu_set_t set;
  CPU_ZERO(&set);
  Cpus cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (!CPU_ISSET(i, &set)) continue;
    cpus.client = cpus.server;
    cpus.server = i;
  }
  if (cpus.client < 0) cpus.client = cpus.server;
  run_on(cpus.server);
  return cpus;
}

void run_on(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);  // 0: the calling thread
}

DriveResult drive(const Workload& w, const Corpus& corpus, std::uint64_t seed,
                  double seconds, const std::string& scratch,
                  const Cpus& cpus, Checks& checks) {
  DriveResult acc;
  const std::string dir = scratch + "/" + w.name + ".wal";
  const KeepAwake awake(cpus);

  // Untimed warm-up: caches, lazy session tables and the allocator settle.
  std::vector<Request> warm;
  for (std::size_t i = 0; i < std::min<std::size_t>(256, corpus.envelopes.size());
       ++i) {
    warm.push_back({i, false});
  }
  run_round(w, corpus, warm, seed, dir, cpus, false, acc, checks);
  // Program counters read by the traced run cover the timed rounds only.
  obs::MetricsRegistry::global().reset();

  const std::vector<Request> sched =
      make_schedule(corpus.envelopes.size(), w.dup_share, seed);
  const auto t0 = Clock::now();
  while (checks.ok() &&
         (acc.rounds == 0 ||
          seconds_between(t0, Clock::now()) < seconds)) {
    run_round(w, corpus, sched, seed, dir, cpus, true, acc, checks);
  }
  std::filesystem::remove_all(dir);
  return acc;
}

}  // namespace e2e
