// ppms_e2e — the repository benchmark: a deterministic corpus of real
// PPMSdec deposits driven through MarketServer::submit to its
// SettleOutcome, plus a single-threaded traced replay of the same calls
// and the kernel rows under them. How to run it and how to read it:
// bench/e2e/README.md.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dec/group_chain.h"
#include "storage/journal.h"
#include "util/bytes.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Coin-tree depth L of every workload: 2^L leaf deposits per wallet.
inline constexpr std::size_t kTreeDepth = 4;
/// Closed-loop window: requests outstanding at once.
inline constexpr std::size_t kOutstanding = 256;
/// Post-drain resubmissions (fresh envelope identity, spent coin) per round.
inline constexpr std::size_t kResubmits = 8;
/// Billing windows per round in the epoch-netting workload.
inline constexpr std::size_t kEpochWindows = 8;
/// Set-up runs as this many equal parts (see mint_corpus).
inline constexpr std::size_t kSetupParts = 3;

/// One traffic mix. The four instances and why each exists are listed in
/// workloads() (corpus.cpp) and README.md.
struct Workload {
  std::string name;
  std::size_t pairing_bits = 128;
  std::size_t wallets = 0;  ///< corpus = wallets · 2^kTreeDepth deposits
  bool durable = false;
  ppms::storage::SyncPolicy sync = ppms::storage::SyncPolicy::kNone;
  bool epoch = false;    ///< epoch netting, kEpochWindows closes per round
  double rate = 0.0;     ///< open-loop deposits/s; 0 = closed loop
  double dup_share = 0;  ///< share of requests that redeliver an envelope
};

const std::vector<Workload>& workloads();
/// --smoke: the same mix on the 128-bit field with a 256-deposit corpus.
Workload smoke_variant(Workload w);

/// The SP side, produced at set-up: serialized envelopes in arrival order.
/// The server only ever sees these bytes.
struct Corpus {
  ppms::DecParams params;
  std::vector<std::string> aids;            ///< one account per wallet
  std::vector<ppms::Bytes> envelopes;       ///< arrival order
  std::uint64_t coin_value = 0;             ///< every deposit is one leaf
  std::vector<ppms::Bytes> resubmits;       ///< spent coins, fresh identity
  ppms::Bytes digest;  ///< SHA-256 over the envelopes and resubmits
  std::vector<double> part_s;               ///< wall time of each set-up part
  std::vector<double> withdraw_ms;          ///< one per wallet
  std::vector<double> spend_ms;             ///< one per leaf
};

/// Set-up, in kSetupParts equal parts. Each part generates the parameters
/// and bank keys (the same ones every time; checked), opens every account
/// one by one so AID-n is deterministic, and mints its share of the
/// wallets on `threads` threads, envelopes serialized. Each wallet draws
/// from its own (seed, index) stream, so the corpus does not depend on the
/// thread count. `tamper` flips one byte of the first envelope's spend
/// proof and re-frames it validly.
Corpus mint_corpus(const Workload& w, std::uint64_t seed, std::size_t threads,
                   bool tamper);

/// The bank of every round: same key seed, so the same keys the corpus
/// was certified under.
std::uint64_t bank_seed(std::uint64_t seed);

/// CPU placement. The MA side (set-up, server, replay, kernels) runs on
/// one CPU and the load generator on another, so the numbers measure one
/// core's work and do not move with how much parallel capacity the host
/// lends at the time of a run. -1 leaves a thread where it is.
struct Cpus {
  int server = -1;
  int client = -1;
};
/// Pick the two CPUs (the last two the process may use; one when it may
/// use one) and move the calling thread, and so every thread it starts
/// later, to the server CPU.
Cpus place_process();
/// Move the calling thread to `cpu`.
void run_on(int cpu);

/// Records the first failed output check; the run then exits 1.
struct Checks {
  std::string failed;  ///< "<check>: <detail>", empty while all pass
  std::size_t requests_failed = 0;

  bool ok() const { return failed.empty(); }
  void expect(bool cond, const std::string& check, const std::string& detail);
};

/// Everything the measured rounds produced.
struct DriveResult {
  std::size_t rounds = 0;
  std::size_t requests = 0;       ///< submitted in timed rounds
  std::size_t new_accepted = 0;   ///< first-time settlements
  std::size_t dup_answers = 0;    ///< byte-identical duplicate answers
  double timed_s = 0;             ///< summed timed wall over rounds
  std::vector<double> round_dps;  ///< new accepted deposits/s, per round
  std::vector<double> round_iqm_ms;  ///< latency interquartile mean, per round
  std::vector<double> latency_ms; ///< one per answered request
  std::vector<double> late_ms;    ///< open loop: send time − due time
  std::vector<double> recovery_s; ///< durable: one per round
  std::vector<double> close_ms;   ///< epoch: one per close
  std::uint64_t peak_verify_queue = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t recovered_records = 0;
};

/// Measured phase: one untimed warm-up round, then rounds until `seconds`
/// of wall time have passed (at least one). Every round rebuilds the bank,
/// ledger, journal and server outside its timed window.
DriveResult drive(const Workload& w, const Corpus& corpus, std::uint64_t seed,
                  double seconds, const std::string& scratch,
                  const Cpus& cpus, Checks& checks);

/// Per-layer rows, by metric name.
using Rows = std::map<std::string, double>;

/// Traced replay: the corpus on one thread through the public calls the
/// server stages make, in batches of `batch`: a warm-up pass, then twice
/// untraced and twice traced. Adds the self-time rows, writes the spans to
/// `spans_path` and returns the number of deposits replayed.
std::size_t traced_replay(const Workload& w, const Corpus& corpus,
                          std::uint64_t seed, std::size_t batch,
                          const std::string& scratch,
                          const std::string& spans_path, Rows& rows,
                          Checks& checks);

/// Kernel rows under the deposit path at the workload's field width.
void kernel_rows(const Workload& w, const Corpus& corpus, std::uint64_t seed,
                 const std::string& scratch, Rows& rows, Checks& checks);

/// Statistics helpers.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// Mean of the values between the first and third quartile.
double interquartile_mean(std::vector<double> v);

/// Remove a round's journal files and (re)create its directory.
void fresh_dir(const std::string& dir);

}  // namespace e2e
