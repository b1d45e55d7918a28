// Kernel rows: the layers under the deposit path, timed through their
// public entry points at the workload's field width. Every row reports
// the median of several repetitions, and every kernel's output is checked.
#include <algorithm>
#include <filesystem>
#include <memory>

#include "bigint/limbs.h"
#include "bigint/simd.h"
#include "clsig/clsig.h"
#include "e2e.h"
#include "hash/sha256.h"
#include "market/epoch.h"
#include "market/outcome.h"
#include "market/vbank.h"
#include "pairing/pipeline.h"
#include "storage/journal.h"

namespace e2e {

using namespace ppms;

namespace {

volatile std::uint64_t g_sink = 0;  // keeps timed results observable

/// Median over `reps` repetitions of the time of `inner` calls of f,
/// divided by `inner`, in nanoseconds.
template <class F>
double median_ns(int reps, std::size_t inner, F&& f) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < inner; ++i) f();
    v.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0)
                    .count() /
                static_cast<double>(inner));
  }
  return median(std::move(v));
}

Bigint odd_modulus(SecureRandom& rng, std::size_t bits) {
  Bigint m = Bigint::two_pow(bits - 1) + Bigint::random_bits(rng, bits - 1);
  return m.is_odd() ? m : m + Bigint(1);
}

void field_rows(SecureRandom& rng, std::size_t limbs, Rows& rows) {
  const FpCtx F(odd_modulus(rng, 64 * limbs));
  const std::string tag = ".n" + std::to_string(limbs);

  FpElem acc = F.to_mont(Bigint::random_bits(rng, 60));
  const FpElem b = F.to_mont(Bigint::random_bits(rng, 60));
  rows["bigint.fp_mul_ns" + tag] =
      median_ns(7, 20000, [&] { F.mul(acc, acc, b); });
  g_sink = g_sink + acc.v[0];

  constexpr std::size_t kJobs = 512;
  std::vector<FpElem> a(kJobs), r(kJobs);
  for (FpElem& x : a) x = F.to_mont(Bigint::random_bits(rng, 60));
  std::vector<FpCtx::MulJob> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) jobs.push_back({&r[i], &a[i], &b});
  rows["bigint.mul_batch_ns" + tag] =
      median_ns(7, 40, [&] { F.mul_batch(jobs.data(), jobs.size()); }) /
      kJobs;
  g_sink = g_sink + r[kJobs - 1].v[0];
}

}  // namespace

void kernel_rows(const Workload& w, const Corpus& corpus, std::uint64_t seed,
                 const std::string& scratch, Rows& rows, Checks& checks) {
  SecureRandom rng(seed ^ 0x6b65726eull);
  const TypeAParams& tp = corpus.params.pairing;

  // ---- bigint: the F_p multiply at both limb widths ------------------
  field_rows(rng, 2, rows);
  field_rows(rng, 8, rows);

  // ---- clsig and G1 at the workload's width ---------------------------
  const ClKeyPair kp = cl_keygen(tp, rng);
  const Bigint m = Bigint::random_below(rng, tp.r);
  const EcPoint M = ec_mul(tp.g, m, tp.p);
  ClSignature sig;
  rows["clsig.sign_committed_ms"] =
      median_ns(5, 2, [&] { sig = cl_sign_committed(tp, kp.sk, M, rng); }) /
      1e6;
  ClSignature rnd;
  rows["clsig.randomize_ms"] =
      median_ns(5, 2, [&] { rnd = cl_randomize(tp, sig, rng); }) / 1e6;
  checks.expect(cl_verify(tp, kp.pk, m, rnd), "kernel: cl_randomize output",
                "randomized signature does not verify");
  const Bigint k160 = Bigint::random_bits(rng, 160);
  EcPoint q;
  rows["pairing.g1_mul_us"] =
      median_ns(5, 4, [&] { q = ec_mul(tp.g, k160, tp.p); }) / 1e3;
  checks.expect(ec_on_curve(q, tp.p), "kernel: ec_mul output", "off curve");

  // ---- pairing: the certificate-equation product at 2 and 128 terms ---
  // ∏ ê(Y, a_j)^δ_j · ê(g, b_j)^{−δ_j} == 1 for valid signatures.
  const PairingEngine engine(tp);
  const PairingPrecomp pre_y = engine.precompute(kp.pk.Y);
  const PairingPrecomp pre_g = engine.precompute(tp.g);
  std::vector<PairingTerm> terms;
  for (int j = 0; j < 64; ++j) {
    const ClSignature s = cl_sign(tp, kp.sk, Bigint::random_below(rng, tp.r),
                                  rng);
    const Bigint delta = Bigint::random_bits(rng, 64) + Bigint(1);
    terms.push_back({&pre_y, EcPoint::at_infinity(), s.a, delta, false});
    terms.push_back({&pre_g, EcPoint::at_infinity(), s.b, delta, true});
  }
  const std::vector<PairingTerm> two(terms.begin(), terms.begin() + 2);
  Fp2 out2, out128;
  rows["pairing.pair_product_us.t2"] =
      median_ns(7, 4, [&] { out2 = engine.pair_product(two); }) / 1e3;
  rows["pairing.pair_product_us.t128"] =
      median_ns(5, 1, [&] { out128 = engine.pair_product(terms); }) / 1e3;
  checks.expect(out2 == fp2_one() && out128 == fp2_one(),
                "kernel: pair_product of valid certificates is 1",
                "product != 1");

  // ---- hash: WAL-transaction-sized inputs -----------------------------
  const Bytes msg = rng.bytes(433);
  Bytes digest;
  const double ns = median_ns(7, 2000, [&] { digest = sha256(msg); });
  rows["hash.sha256_mbps"] = 433.0 / ns * 1e3;
  checks.expect(digest.size() == 32, "kernel: sha256 output", "size");

  // ---- storage: settle-shaped transactions, then replay --------------
  // In-memory workloads have no journal; their rows use a kNone WAL.
  const storage::SyncPolicy sync =
      w.durable ? w.sync : storage::SyncPolicy::kNone;
  const std::string dir = scratch + "/" + w.name + ".kernel";
  fresh_dir(dir);
  const std::string wal = dir + "/wal.log";
  const std::size_t txns =
      sync == storage::SyncPolicy::kEveryRecord ? 128 : 512;
  {
    storage::FileJournalOptions jopt;
    jopt.sync = sync;
    storage::FileJournal journal(wal, jopt);
    storage::DecSpendMarkRecord mark;
    for (std::size_t d = 0; d <= kTreeDepth; ++d) {
      mark.revealed.push_back({d, rng.bytes(8)});
    }
    mark.spent.push_back(mark.revealed.back());
    const Bytes reply = SettleOutcome::ok(1).serialize();
    std::vector<double> per_txn;
    for (std::size_t i = 0; i < txns; ++i) {
      const auto t0 = Clock::now();
      {
        storage::JournalScope txn(&journal);
        journal.append(storage::MutationKind::kDecSpendMark,
                       storage::encode(mark));
        journal.append(storage::MutationKind::kCredit,
                       storage::encode(storage::CreditRecord{
                           corpus.aids[i % corpus.aids.size()], 1, 0}));
        journal.append(storage::MutationKind::kIdemReply,
                       storage::encode(storage::IdemReplyRecord{
                           rng.bytes(32), reply}));
      }
      per_txn.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count());
    }
    rows["storage.txn_us"] = median(per_txn);
  }
  std::vector<double> rates;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    storage::FileJournal journal(wal);
    std::uint64_t delivered = 0;
    journal.replay([&](const storage::MutationRecord&) { ++delivered; });
    const double s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    checks.expect(delivered == 3 * txns, "kernel: WAL replay delivers",
                  std::to_string(delivered));
    rates.push_back(static_cast<double>(delivered) / s / 1e3);
  }
  rows["storage.replay_krec_per_s"] = median(rates);

  // ---- market: one netted window close over the workload's accounts ---
  const std::size_t coins = std::min<std::size_t>(512, corpus.envelopes.size());
  std::vector<double> close_ms;
  for (int r = 0; r < 5 && checks.ok(); ++r) {
    fresh_dir(dir);
    std::unique_ptr<storage::FileJournal> journal;
    if (w.durable) {
      storage::FileJournalOptions jopt;
      jopt.sync = w.sync;
      journal = std::make_unique<storage::FileJournal>(wal, jopt);
    }
    VBank vbank;
    vbank.attach_journal(journal.get());
    for (std::size_t i = 0; i < corpus.aids.size(); ++i) {
      vbank.open_account("e2e-sp-" + std::to_string(i));
    }
    EpochAccumulator epochs;
    epochs.attach_journal(journal.get());
    for (std::size_t i = 0; i < coins; ++i) {
      epochs.accrue(corpus.aids[i % corpus.aids.size()], corpus.coin_value, 0);
    }
    const auto t0 = Clock::now();
    const EpochAccumulator::CloseStats st = epochs.close(vbank, 0);
    close_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    checks.expect(st.coins == coins && epochs.pending_total() == 0,
                  "kernel: window close nets every accrual",
                  std::to_string(st.coins));
  }
  rows["market.close_ms"] = median(close_ms);
  std::filesystem::remove_all(dir);
}

}  // namespace e2e
