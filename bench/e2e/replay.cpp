// Traced replay: the server's decode → verify → settle calls made from one
// thread, with spans recorded by this file around each call into a layer.
// Spans live in memory and are written out after the replay; the same
// replay run untraced gives the tracing overhead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>

#include "dec/bank.h"
#include "dec/spend.h"
#include "e2e.h"
#include "market/epoch.h"
#include "market/faults.h"
#include "market/vbank.h"
#include "storage/idempotency.h"
#include "storage/recovery.h"
#include "util/serial.h"

namespace e2e {

using namespace ppms;

namespace {

struct SpanRec {
  const char* name;
  std::uint32_t batch;  ///< spans of one batch share this id
  std::int32_t parent;  ///< index into the log, −1 for a root
  std::int64_t t0_ns, t1_ns;
};

/// In-memory span log. A null log is the untraced replay: no clock read,
/// no record.
class SpanLog {
 public:
  explicit SpanLog(std::size_t reserve) { recs_.reserve(reserve); }
  std::int32_t open(const char* name, std::uint32_t batch,
                    std::int32_t parent) {
    recs_.push_back({name, batch, parent, now_ns(), 0});
    return static_cast<std::int32_t>(recs_.size() - 1);
  }
  void close(std::int32_t idx) { recs_[idx].t1_ns = now_ns(); }
  const std::vector<SpanRec>& records() const { return recs_; }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

 private:
  std::vector<SpanRec> recs_;
};

class Span {
 public:
  Span(SpanLog* log, const char* name, std::uint32_t batch,
       std::int32_t parent = -1)
      : log_(log), idx_(log ? log->open(name, batch, parent) : -1) {}
  ~Span() {
    if (log_) log_->close(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::int32_t id() const { return idx_; }

 private:
  SpanLog* log_;
  std::int32_t idx_;
};

/// The layer row each span's self time is charged to.
const char* row_of(const std::string& span) {
  if (span == "deposit.batch") return "server.batch_self_us";
  if (span == "decode") return "dec.decode_us";
  if (span == "verify.cert_batch") return "dec.cert_batch_us_per_coin";
  if (span == "verify.spend_check") return "dec.spend_check_us";
  if (span == "settle.commit") return "dec.settle_us";
  if (span == "settle.reply") return "storage.reply_us";
  if (span == "settle.journal") return "storage.commit_us";
  return "market.ledger_us";  // settle.credit, settle.accrue, epoch.close
}

/// One pass over the corpus; returns its wall time in seconds.
double replay_once(const Workload& w, const Corpus& corpus, std::uint64_t seed,
                   std::size_t batch, const std::string& dir, SpanLog* log,
                   Checks& checks) {
  SecureRandom bank_rng(bank_seed(seed));
  DecBank bank(corpus.params, bank_rng);
  VBank vbank;
  IdempotencyStore store;
  EpochAccumulator epochs;
  std::unique_ptr<storage::DurableLedger> ledger;
  storage::LedgerJournal* journal = nullptr;
  if (w.durable) {
    fresh_dir(dir);
    storage::DurableLedgerOptions dopt;
    dopt.journal.sync = w.sync;
    ledger = std::make_unique<storage::DurableLedger>(dir, dopt);
    journal = &ledger->journal();
    vbank.attach_journal(journal);
  }
  for (std::size_t i = 0; i < corpus.aids.size(); ++i) {
    vbank.open_account("e2e-sp-" + std::to_string(i));
  }
  if (journal != nullptr) {  // what the MarketServer constructor attaches
    bank.attach_journal(journal);
    store.attach_journal(journal);
    epochs.attach_journal(journal);
  }
  SecureRandom verify_rng(seed ^ 0x766572ull);
  const DecParams& params = corpus.params;
  const ClPublicKey& pk = bank.public_key();
  const std::size_t n = corpus.envelopes.size();
  const std::size_t per_window = n / kEpochWindows;
  std::size_t closes = 0, settled = 0, verified = 0, accepted = 0;

  struct Item {
    Bytes key;
    std::string aid;
    SpendBundle spend;
  };

  const auto t0 = Clock::now();
  for (std::size_t begin = 0; begin < n; begin += batch) {
    const auto b = static_cast<std::uint32_t>(begin / batch);
    const std::size_t end = std::min(n, begin + batch);
    {
      Span root(log, "deposit.batch", b);
      std::vector<Item> items;
      items.reserve(end - begin);
      for (std::size_t i = begin; i < end; ++i) {
        Span s(log, "decode", b, root.id());
        Envelope env = Envelope::deserialize(corpus.envelopes[i]);
        const bool fresh = !store.find(env.idem_key).has_value();
        Reader r(env.payload);
        std::string aid = r.get_string();
        const bool hiding = r.get_bool();
        const Bytes body = r.get_bytes();
        const bool ok = fresh && !hiding && r.exhausted() &&
                        vbank.has_account(aid);
        checks.expect(ok, "replay decodes every deposit", aid);
        items.push_back({std::move(env.idem_key), std::move(aid),
                         SpendBundle::deserialize(params, body)});
      }
      std::vector<const ClSignature*> certs;
      for (const Item& it : items) certs.push_back(&it.spend.cert);
      std::vector<bool> cert_ok;
      {
        Span s(log, "verify.cert_batch", b, root.id());
        cert_ok = verify_cert_equation_batch(params, pk, certs, verify_rng);
      }
      for (std::size_t k = 0; k < items.size(); ++k) {
        Span s(log, "verify.spend_check", b, root.id());
        if (cert_ok[k] && verify_spend_assuming_cert(params, pk,
                                                     items[k].spend)) {
          ++verified;
        }
      }
      for (Item& it : items) {
        std::optional<storage::JournalScope> txn(std::in_place, journal);
        SettleOutcome outcome;
        {
          Span s(log, "settle.commit", b, root.id());
          outcome = bank.settle_verified(it.spend);
        }
        if (outcome.accepted()) {
          ++accepted;
          if (w.epoch) {
            Span s(log, "settle.accrue", b, root.id());
            epochs.accrue(it.aid, outcome.value, 0);
          } else {
            Span s(log, "settle.credit", b, root.id());
            vbank.credit(it.aid, outcome.value, 0);
          }
        }
        {
          Span s(log, "settle.reply", b, root.id());
          store.record(std::move(it.key), outcome.serialize());
        }
        {
          Span s(log, "settle.journal", b, root.id());
          txn.reset();
        }
      }
    }
    settled = end;
    // The closer thread's share: windows cut on the same completion
    // thresholds as the measured run.
    while (w.epoch && closes + 1 < kEpochWindows &&
           settled >= (closes + 1) * per_window) {
      Span s(log, "epoch.close", b);
      epochs.close(vbank, 0);
      ++closes;
    }
  }
  if (w.epoch) {
    Span s(log, "epoch.close", static_cast<std::uint32_t>(n / batch));
    epochs.close(vbank, 0);
  }
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();

  checks.expect(verified == n, "replay verifies every spend",
                std::to_string(verified) + " of " + std::to_string(n));
  checks.expect(accepted == n, "replay settles every spend",
                std::to_string(accepted) + " of " + std::to_string(n));
  std::uint64_t total = 0;
  for (const std::string& aid : corpus.aids) {
    total += static_cast<std::uint64_t>(vbank.balance(aid));
  }
  checks.expect(total == n * corpus.coin_value,
                "replay ledger total == corpus value", std::to_string(total));
  if (ledger) std::filesystem::remove_all(dir);
  return wall;
}

bool write_spans(const std::string& path, const std::string& workload,
                 const std::vector<SpanRec>& recs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t base = recs.empty() ? 0 : recs.front().t0_ns;
  std::fprintf(f, "{\"workload\": \"%s\", \"unit\": \"ns\", \"spans\": [\n",
               workload.c_str());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const SpanRec& r = recs[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"batch\": %u, \"parent\": %d, \"name\": "
                 "\"%s\", \"start\": %lld, \"dur\": %lld}%s\n",
                 i, r.batch, r.parent, r.name,
                 static_cast<long long>(r.t0_ns - base),
                 static_cast<long long>(r.t1_ns - r.t0_ns),
                 i + 1 < recs.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace

std::size_t traced_replay(const Workload& w, const Corpus& corpus,
                          std::uint64_t seed, std::size_t batch,
                          const std::string& scratch,
                          const std::string& spans_path, Rows& rows,
                          Checks& checks) {
  const std::string dir = scratch + "/" + w.name + ".replay";
  const std::size_t n = corpus.envelopes.size();
  batch = std::max<std::size_t>(1, batch);

  // An untimed warm-up pass, then untraced and traced passes in ABBA
  // order, so a drift across the passes cancels out of the overhead; the
  // last traced log is kept.
  replay_once(w, corpus, seed, batch, dir, nullptr, checks);
  std::vector<double> plain, traced;
  std::unique_ptr<SpanLog> log;
  for (const bool trace_pass : {false, true, true, false}) {
    if (!checks.ok()) break;
    if (trace_pass) log = std::make_unique<SpanLog>(n * 8 + 64);
    (trace_pass ? traced : plain)
        .push_back(replay_once(w, corpus, seed, batch, dir,
                               trace_pass ? log.get() : nullptr, checks));
  }
  const std::size_t replayed = n * (1 + plain.size() + traced.size());
  if (!checks.ok()) return replayed;

  // Self time = span duration minus the part its direct children cover.
  const std::vector<SpanRec>& recs = log->records();
  std::vector<std::int64_t> self(recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    self[i] = recs[i].t1_ns - recs[i].t0_ns;
  }
  for (const SpanRec& r : recs) {
    if (r.parent >= 0) self[r.parent] -= r.t1_ns - r.t0_ns;
  }
  std::map<std::string, double> by_span;
  double sum_ns = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    by_span[recs[i].name] += static_cast<double>(self[i]);
    rows[row_of(recs[i].name)] += static_cast<double>(self[i]) / 1e3 /
                                  static_cast<double>(n);
    sum_ns += static_cast<double>(self[i]);
  }
  const double wall_ns = traced.back() * 1e9;
  rows["trace.coverage_pct"] = 100.0 * sum_ns / wall_ns;
  rows["trace.overhead_pct"] =
      100.0 * (median(traced) - median(plain)) / median(plain);
  checks.expect(write_spans(spans_path, w.name, recs), "spans are written",
                spans_path);

  std::printf("traced replay: %zu deposits on one thread, batches of %zu\n",
              n, batch);
  std::printf("  %-20s %14s %8s\n", "span", "self us/dep", "share");
  for (const auto& [name, ns] : by_span) {
    std::printf("  %-20s %14.3f %7.1f%%\n", name.c_str(),
                ns / 1e3 / static_cast<double>(n), 100.0 * ns / sum_ns);
  }
  std::printf("  sum of self times %.1f ms vs traced wall %.1f ms "
              "(coverage %.2f%%)\n",
              sum_ns / 1e6, wall_ns / 1e6, rows["trace.coverage_pct"]);
  std::printf("  tracing overhead %.2f%% (untraced %.1f ms, traced %.1f ms)\n",
              rows["trace.overhead_pct"], median(plain) * 1e3,
              median(traced) * 1e3);
  std::printf("  spans written to %s\n", spans_path.c_str());
  checks.expect(std::abs(rows["trace.coverage_pct"] - 100.0) <= 5.0,
                "layer self times add up to the traced wall",
                std::to_string(rows["trace.coverage_pct"]) + "%");
  return replayed;
}

}  // namespace e2e
