// Workload table and the SP side of the benchmark: set-up and the minted
// deposit corpus.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <time.h>

#include "core/params.h"
#include "dec/bank.h"
#include "dec/wallet.h"
#include "e2e.h"
#include "hash/sha256.h"
#include "market/faults.h"
#include "market/vbank.h"
#include "server/server.h"
#include "util/serial.h"

namespace e2e {

using namespace ppms;

const std::vector<Workload>& workloads() {
  using storage::SyncPolicy;
  // Sizes keep one run (set-up plus 10 s of rounds) near 20 s on one CPU:
  // a 512-bit wallet costs about 0.33 s to mint, a 128-bit one 0.07 s.
  static const std::vector<Workload> kAll = {
      // Paper-width field, in memory, saturated: the verify stage (batched
      // certificate product + per-spend ZKP) bounds throughput.
      {"deposit_sat_512", 512, 18, false, SyncPolicy::kNone, false, 0.0, 0.0},
      // Same corpus paced below saturation with a batched-fsync WAL: small
      // verify batches, so per-batch fixed costs and queueing set latency.
      {"deposit_paced_512", 512, 18, true, SyncPolicy::kBatch, false, 175.0,
       0.0},
      // Lane-starved 128-bit field, one fsync per WAL record, a quarter of
      // the requests redelivered: storage and the idempotency store bound it.
      {"deposit_strict_128", 128, 84, true, SyncPolicy::kEveryRecord, false,
       0.0, 0.25},
      // Same verify work, settled by accrual and netted window closes.
      {"deposit_epoch_128", 128, 84, true, SyncPolicy::kBatch, true, 0.0,
       0.0},
  };
  return kAll;
}

Workload smoke_variant(Workload w) {
  w.pairing_bits = 128;
  w.wallets = 16;
  return w;
}

std::uint64_t bank_seed(std::uint64_t seed) { return seed * 1000003 + 1; }

void Checks::expect(bool cond, const std::string& check,
                    const std::string& detail) {
  if (!cond && failed.empty()) failed = check + ": " + detail;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks.
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

void fresh_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// CPU time of the calling thread, in ms: an SP operation's cost, free of
/// the time the host keeps the CPU from us.
double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

Bytes frame(std::uint64_t session_id, Bytes payload) {
  Envelope env;
  env.session_id = session_id;
  env.seq = 0;
  env.payload = std::move(payload);
  Writer key;
  key.put_u64(env.session_id);
  key.put_u64(env.seq);
  key.put_bytes(env.payload);
  env.idem_key = sha256(key.data());
  return env.serialize();
}

struct Minted {
  std::vector<Bytes> envelopes;  ///< one per leaf, leaf order
  double withdraw_ms = 0;
  std::vector<double> spend_ms;
};

/// One SP: withdraw a coin, spend every leaf, frame each spend as the
/// deposit envelope the SP would send.
Minted mint_wallet(const DecParams& params, DecBank& bank,
                   const std::string& aid, std::uint64_t seed,
                   std::size_t index) {
  Writer stream;
  stream.put_string("ppms-e2e-wallet");
  stream.put_u64(seed);
  stream.put_u64(index);
  SecureRandom rng(stream.data());

  Minted out;
  DecWallet wallet(params, rng);
  const Bytes ctx = bytes_of("e2e-withdraw");
  const double t0 = thread_cpu_ms();
  const SchnorrProof pok = wallet.prove_commitment(rng, ctx);
  const auto sig = bank.withdraw(wallet.commitment(), pok, ctx, rng);
  if (!sig) throw std::runtime_error("withdrawal rejected");
  wallet.set_certificate(bank.public_key(), *sig);
  out.withdraw_ms = thread_cpu_ms() - t0;

  const std::size_t leaves = std::size_t{1} << kTreeDepth;
  for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
    const Bytes context = bytes_of("e2e-w" + std::to_string(index) + "-l" +
                                   std::to_string(leaf));
    const double s0 = thread_cpu_ms();
    const SpendBundle spend = wallet.spend(NodeIndex{kTreeDepth, leaf},
                                           bank.public_key(), rng, context);
    out.spend_ms.push_back(thread_cpu_ms() - s0);
    out.envelopes.push_back(
        frame(index * leaves + leaf + 1,
              encode_deposit_request(aid, /*hiding=*/false,
                                     spend.serialize(params))));
  }
  return out;
}

/// fn(i) for i in [lo, hi) on `threads` threads; rethrows the first error.
template <class Fn>
void parallel_for(std::size_t lo, std::size_t hi, std::size_t threads,
                  Fn fn) {
  std::atomic<std::size_t> next{lo};
  std::mutex err_mu;
  std::string err;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::max<std::size_t>(1, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < hi; i = next++) {
        try {
          fn(i);
        } catch (const std::exception& e) {
          std::lock_guard lock(err_mu);
          if (err.empty()) err = e.what();
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (!err.empty()) throw std::runtime_error("mint: " + err);
}

/// The envelope's request re-framed with one flipped proof byte.
Bytes tamper_proof(const DecParams& params, const Bytes& wire) {
  const Envelope env = Envelope::deserialize(wire);
  Reader r(env.payload);
  const std::string aid = r.get_string();
  r.get_bool();
  SpendBundle spend = SpendBundle::deserialize(params, r.get_bytes());
  Bytes proof = spend.proof.serialize();
  proof.back() ^= 1;
  spend.proof = EqualityProof::deserialize(proof);
  return frame(env.session_id,
               encode_deposit_request(aid, false, spend.serialize(params)));
}

}  // namespace

Corpus mint_corpus(const Workload& w, std::uint64_t seed, std::size_t threads,
                   bool tamper) {
  Corpus c;
  std::vector<Minted> minted(w.wallets);
  Bytes bank_key;
  for (std::size_t part = 0; part < kSetupParts; ++part) {
    const auto t0 = Clock::now();
    DecParams params = fast_dec_params(seed, kTreeDepth, w.pairing_bits);
    SecureRandom bank_rng(bank_seed(seed));
    DecBank bank(params, bank_rng);
    VBank vbank;
    std::vector<std::string> aids;
    for (std::size_t i = 0; i < w.wallets; ++i) {
      aids.push_back(vbank.open_account("e2e-sp-" + std::to_string(i)));
    }
    parallel_for(part * w.wallets / kSetupParts,
                 (part + 1) * w.wallets / kSetupParts, threads,
                 [&](std::size_t i) {
                   minted[i] = mint_wallet(params, bank, aids[i], seed, i);
                 });
    c.part_s.push_back(ms_since(t0) / 1e3);

    const Bytes key = bank.public_key().serialize(params.pairing);
    if (part == 0) {
      c.params = std::move(params);
      c.aids = std::move(aids);
      bank_key = key;
    } else if (key != bank_key || aids != c.aids) {
      throw std::runtime_error("set-up parts disagree on keys or accounts");
    }
  }

  // Arrival order: a seeded shuffle, so unrelated sessions interleave.
  for (Minted& m : minted) {
    for (Bytes& env : m.envelopes) c.envelopes.push_back(std::move(env));
    c.withdraw_ms.push_back(m.withdraw_ms);
    c.spend_ms.insert(c.spend_ms.end(), m.spend_ms.begin(), m.spend_ms.end());
  }
  SecureRandom order_rng(seed ^ 0x6f72646572ull);
  for (std::size_t i = c.envelopes.size(); i > 1; --i) {
    std::swap(c.envelopes[i - 1], c.envelopes[order_rng.uniform(i)]);
  }
  // A malicious SP: one flipped proof byte inside a validly framed
  // envelope, so the spend reaches the verify stage.
  if (tamper) c.envelopes[0] = tamper_proof(c.params, c.envelopes[0]);
  c.coin_value = c.params.node_value(kTreeDepth);
  for (std::size_t k = 0; k < std::min(kResubmits, c.envelopes.size()); ++k) {
    c.resubmits.push_back(frame((std::uint64_t{1} << 40) + k,
                                Envelope::deserialize(c.envelopes[k]).payload));
  }

  Sha256 h;
  for (const auto* list : {&c.envelopes, &c.resubmits}) {
    for (const Bytes& env : *list) {
      Writer len;
      len.put_u64(env.size());
      h.update(len.data());
      h.update(env);
    }
  }
  c.digest = h.finish();
  return c;
}

}  // namespace e2e
