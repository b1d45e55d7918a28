// Kill-at-any-record crash injection. One seeded run drives journaled
// mutations through all three stores — standalone records, settle-shaped
// transactions (spend mark + credit + cached reply), a rejected double
// spend, an epoch mark — and captures the uncrashed twin's (WAL length,
// ledger digest) after every step. The tests then crash that WAL at
// every step boundary, at arbitrary torn offsets, and byte-by-byte over
// the last record, and assert recovery always lands on a twin digest:
// the exact one at a clean kill, SOME step's at a torn write (never a
// state between steps — transaction atomicity), and the pre-transaction
// one when the commit marker is damaged.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "dec/dec_fixture.h"
#include "dec/wallet.h"
#include "market/vbank.h"
#include "storage/idempotency.h"
#include "storage/journal.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "storage/storage_fixture.h"

namespace ppms {
namespace {

using testing::make_bank;
using testing::make_funded_wallet;
using testing::read_file;
using testing::scratch_dir;
using testing::wal_record_boundaries;
using testing::write_file;

struct Twin {
  std::size_t wal_bytes = 0;  ///< WAL length at this step boundary
  Bytes digest;               ///< ledger_state_digest of the live stores
};

struct Scenario {
  std::vector<Twin> steps;
  Bytes wal_image;  ///< the full WAL after the final step
};

/// The seeded run. Every step ends with no transaction open, so each
/// recorded twin is a legal recovery target; a crash at any other byte
/// must recover to one of them and nothing else.
Scenario run_scenario(const std::string& dir) {
  storage::DurableLedger ledger(dir);
  VBank vbank;
  DecBank bank = make_bank(501);
  IdempotencyStore idem;
  ledger.attach(vbank, bank, idem);
  SecureRandom rng(777);
  const Bytes ctx = bytes_of("crash-ctx");

  Scenario out;
  const auto mark = [&] {
    out.steps.push_back({read_file(ledger.wal_path()).size(),
                         storage::ledger_state_digest(vbank, bank, idem)});
  };
  mark();  // step 0: empty ledger, bare WAL header

  // Standalone records are each their own atomic recovery point, so each
  // gets its own step (a tear between two opens legally recovers to the
  // first alone — only transaction members are all-or-nothing).
  const std::string a = vbank.open_account("alice");
  mark();
  const std::string b = vbank.open_account("bob");
  mark();

  vbank.credit(a, 25, 1);
  mark();

  // A settle transaction the way the server's settle stage shapes one:
  // spend mark + credit + cached reply, all-or-nothing.
  DecWallet w1 = make_funded_wallet(bank, 601);
  const SpendBundle sb1 =
      w1.spend(NodeIndex{0, 0}, bank.public_key(), rng, ctx);
  {
    storage::JournalScope txn(&ledger.journal());
    const SettleOutcome res = bank.deposit(sb1);
    EXPECT_TRUE(res.accepted()) << res.reason;
    vbank.credit(a, res.value, 2);
    idem.record(bytes_of("env-1"), res.serialize());
  }
  mark();

  ledger.mark_epoch(1, 3);
  mark();

  DecWallet w2 = make_funded_wallet(bank, 602);
  const RootHidingSpend hs =
      w2.spend_hiding(NodeIndex{1, 0}, bank.public_key(), rng, ctx);
  {
    storage::JournalScope txn(&ledger.journal());
    const SettleOutcome res = bank.deposit(hs);
    EXPECT_TRUE(res.accepted()) << res.reason;
    vbank.credit(b, res.value, 4);
    idem.record(bytes_of("env-2"), res.serialize());
  }
  mark();

  {  // double spend: the rejection journals only the cached reply
    storage::JournalScope txn(&ledger.journal());
    const SettleOutcome res = bank.deposit(sb1);
    EXPECT_FALSE(res.accepted());
    idem.record(bytes_of("env-3"), res.serialize());
  }
  mark();

  vbank.debit(a, 5, 5);
  mark();

  // Final step is a transaction, so the WAL's last record is its commit
  // marker — the torn-commit tests lean on that.
  const SpendBundle sb3 =
      w2.spend(NodeIndex{1, 1}, bank.public_key(), rng, ctx);
  {
    storage::JournalScope txn(&ledger.journal());
    const SettleOutcome res = bank.deposit(sb3);
    EXPECT_TRUE(res.accepted()) << res.reason;
    vbank.credit(b, res.value, 6);
    idem.record(bytes_of("env-4"), res.serialize());
  }
  mark();

  ledger.journal().sync();
  out.wal_image = read_file(ledger.wal_path());
  EXPECT_EQ(out.wal_image.size(), out.steps.back().wal_bytes);
  return out;
}

/// Recover a crashed WAL image from `rec_dir` into fresh stores and
/// return their ledger digest. The recovery DecBank gets fresh keys —
/// only the serial store is ledger state, so key material must not (and
/// does not) enter the digest.
Bytes recover_image(const std::string& rec_dir, const Bytes& image,
                    std::uint64_t seed,
                    storage::RecoveryStats* stats = nullptr) {
  write_file(rec_dir + "/wal.log", image);
  VBank vbank;
  DecBank bank = make_bank(seed);
  IdempotencyStore idem;
  storage::DurableLedger ledger(rec_dir);
  const storage::RecoveryStats s = ledger.recover(vbank, bank, idem);
  if (stats != nullptr) *stats = s;
  return storage::ledger_state_digest(vbank, bank, idem);
}

Bytes prefix(const Bytes& image, std::size_t len) {
  return Bytes(image.begin(), image.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(len, image.size())));
}

TEST(CrashRecoveryTest, KillAtEveryStepBoundaryRecoversTheTwin) {
  const Scenario sc = run_scenario(scratch_dir("twin"));
  const std::string rec_dir = scratch_dir("twin_rec");
  for (std::size_t i = 0; i < sc.steps.size(); ++i) {
    EXPECT_EQ(recover_image(rec_dir, prefix(sc.wal_image, sc.steps[i].wal_bytes),
                            900 + i),
              sc.steps[i].digest)
        << "kill after step " << i << " did not recover its twin";
  }
}

TEST(CrashRecoveryTest, TornWriteAtAnyByteRecoversToSomeStep) {
  const Scenario sc = run_scenario(scratch_dir("torn"));
  std::set<Bytes> legal;
  for (const Twin& t : sc.steps) legal.insert(t.digest);

  // Crash points: every record boundary and its neighborhood (the torn
  // length-prefix / torn digest cases live there), plus a coarse sweep
  // across the whole image so mid-frame tears are hit too.
  std::set<std::size_t> cuts;
  for (std::size_t bound : wal_record_boundaries(sc.wal_image)) {
    for (std::size_t d : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      if (bound + d <= sc.wal_image.size()) cuts.insert(bound + d);
      if (bound >= 8 + d) cuts.insert(bound - d);
    }
  }
  const std::size_t stride =
      std::max<std::size_t>(1, sc.wal_image.size() / 48);
  for (std::size_t c = 8; c < sc.wal_image.size(); c += stride) cuts.insert(c);

  const std::string rec_dir = scratch_dir("torn_rec");
  std::uint64_t seed = 1000;
  for (std::size_t cut : cuts) {
    const Bytes digest =
        recover_image(rec_dir, prefix(sc.wal_image, cut), seed++);
    EXPECT_TRUE(legal.count(digest) == 1)
        << "tear at byte " << cut << " recovered a state between steps";
  }
}

TEST(CrashRecoveryTest, EveryFlippedByteOfTheLastRecordRollsBackTheTxn) {
  const Scenario sc = run_scenario(scratch_dir("flip"));
  const auto bounds = wal_record_boundaries(sc.wal_image);
  ASSERT_GE(bounds.size(), 2u);
  const std::size_t last_start = bounds[bounds.size() - 2];
  const std::size_t last_end = bounds.back();
  ASSERT_EQ(last_end, sc.wal_image.size());

  // The scenario ends inside a settle transaction, so the last record is
  // its kTxnCommit marker. Damaging ANY of its bytes must truncate it and
  // roll the whole settle back to the previous step — the spend mark and
  // credit sitting before it on disk must never be half-applied.
  const Bytes& want = sc.steps[sc.steps.size() - 2].digest;
  const std::string rec_dir = scratch_dir("flip_rec");
  std::uint64_t seed = 2000;
  for (std::size_t off = last_start; off < last_end; ++off) {
    Bytes image = sc.wal_image;
    image[off] ^= 0x01;
    storage::RecoveryStats stats;
    const Bytes digest = recover_image(rec_dir, image, seed++, &stats);
    EXPECT_GT(stats.torn_tail_bytes, 0u) << "offset " << off;
    EXPECT_EQ(digest, want) << "flipped byte at offset " << off;
  }
}

TEST(CrashRecoveryTest, FlippedByteInTheMiddleCutsEverythingAfterIt) {
  const Scenario sc = run_scenario(scratch_dir("midflip"));
  std::set<Bytes> legal;
  for (const Twin& t : sc.steps) legal.insert(t.digest);

  // Chain property: damage to an interior record discards it AND every
  // record after it (their digests chain through the damaged one), so
  // recovery lands on an earlier step, never skips over the hole.
  const auto bounds = wal_record_boundaries(sc.wal_image);
  ASSERT_GE(bounds.size(), 4u);
  const std::size_t mid = bounds[bounds.size() / 2] + 6;
  Bytes image = sc.wal_image;
  image[mid] ^= 0x80;

  const std::string rec_dir = scratch_dir("midflip_rec");
  storage::RecoveryStats stats;
  const Bytes digest = recover_image(rec_dir, image, 3000, &stats);
  EXPECT_GT(stats.torn_tail_bytes, 0u);
  EXPECT_EQ(legal.count(digest), 1u);
  EXPECT_NE(digest, sc.steps.back().digest);  // the tail really is gone
}

TEST(CrashRecoveryTest, MidSnapshotCrashDebrisNeverPoisonsRecovery) {
  const std::string dir = scratch_dir("debris");
  VBank vbank;
  DecBank bank = make_bank(3101);
  IdempotencyStore idem;
  Bytes live;
  {
    storage::DurableLedger ledger(dir);
    ledger.attach(vbank, bank, idem);
    const std::string a = vbank.open_account("alice");
    vbank.credit(a, 10, 1);
    ledger.write_snapshot(vbank, bank, idem);
    vbank.credit(a, 3, 2);
    live = storage::ledger_state_digest(vbank, bank, idem);
    ledger.journal().sync();
  }
  // A crash mid-snapshot leaves a half-written tmp behind; recovery must
  // read only the committed snapshot + WAL.
  write_file(dir + "/snapshot.bin.tmp", bytes_of("half-written garbage"));

  VBank rec_vbank;
  DecBank rec_bank = make_bank(3102);
  IdempotencyStore rec_idem;
  storage::DurableLedger reopened(dir);
  const auto stats = reopened.recover(rec_vbank, rec_bank, rec_idem);
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(storage::ledger_state_digest(rec_vbank, rec_bank, rec_idem),
            live);

  // The next snapshot writer simply overwrites the debris.
  reopened.attach(rec_vbank, rec_bank, rec_idem);
  reopened.write_snapshot(rec_vbank, rec_bank, rec_idem);
  VBank v2;
  DecBank b2 = make_bank(3103);
  IdempotencyStore i2;
  storage::DurableLedger again(dir);
  again.recover(v2, b2, i2);
  EXPECT_EQ(storage::ledger_state_digest(v2, b2, i2), live);
}

TEST(CrashRecoveryTest, CrashPointsAfterASnapshotReplayOverIt) {
  // Same kill-anywhere guarantee with a snapshot underneath: crash the
  // post-snapshot WAL suffix at every record boundary and recover
  // snapshot + prefix to the twin.
  const std::string dir = scratch_dir("snap_kill");
  storage::DurableLedger ledger(dir);
  VBank vbank;
  DecBank bank = make_bank(3201);
  IdempotencyStore idem;
  ledger.attach(vbank, bank, idem);

  const std::string a = vbank.open_account("alice");
  vbank.credit(a, 100, 1);
  ledger.write_snapshot(vbank, bank, idem);

  std::vector<Twin> twins;
  const auto mark = [&] {
    twins.push_back({read_file(ledger.wal_path()).size(),
                     storage::ledger_state_digest(vbank, bank, idem)});
  };
  mark();
  vbank.credit(a, 1, 2);
  mark();
  vbank.debit(a, 7, 3);
  mark();
  idem.record(bytes_of("late-key"), bytes_of("late-reply"));
  mark();
  ledger.journal().sync();

  const Bytes image = read_file(ledger.wal_path());
  const Bytes snapshot = read_file(ledger.snapshot_path());
  const std::string rec_dir = scratch_dir("snap_kill_rec");
  for (std::size_t i = 0; i < twins.size(); ++i) {
    write_file(rec_dir + "/snapshot.bin", snapshot);
    storage::RecoveryStats stats;
    const Bytes digest = recover_image(
        rec_dir, prefix(image, twins[i].wal_bytes), 3300 + i, &stats);
    EXPECT_TRUE(stats.snapshot_loaded);
    EXPECT_EQ(stats.applied_records, i);
    EXPECT_EQ(digest, twins[i].digest) << "kill after suffix step " << i;
  }
}

}  // namespace
}  // namespace ppms
