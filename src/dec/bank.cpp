#include "dec/bank.h"

#include <algorithm>

#include "dec/statement.h"
#include "market/error.h"
#include "obs/metrics.h"
#include "util/serial.h"

namespace ppms {

Bytes encode_deposit_request(const std::string& aid, bool hiding,
                             const Bytes& coin_wire) {
  Writer w;
  w.put_string(aid);
  w.put_bool(hiding);
  w.put_bytes(coin_wire);
  return w.take();
}

DepositRequest decode_deposit_request(const DecParams& params,
                                      const Bytes& payload) {
  Reader r(payload);
  std::string aid = r.get_string();
  const bool hiding = r.get_bool();
  const Bytes body = r.get_bytes();
  if (!r.exhausted()) {
    throw MarketError(MarketErrc::kMalformedMessage,
                      "deposit: trailing garbage");
  }
  if (hiding) {
    return {std::move(aid), RootHidingSpend::deserialize(params, body)};
  }
  return {std::move(aid), SpendBundle::deserialize(params, body)};
}

DecBank::DecBank(DecParams params, SecureRandom& rng)
    : params_(std::move(params)),
      keys_(cl_keygen(params_.pairing, rng)),
      batch_rng_(rng.next_u64()) {}

std::optional<ClSignature> DecBank::withdraw(const EcPoint& commitment,
                                             const SchnorrProof& pok,
                                             const Bytes& context,
                                             SecureRandom& rng) {
  const EcGroup ec(params_.pairing);
  const Bytes m = ec.encode(commitment);
  // schnorr_verify checks ec.contains(m) itself.
  if (!schnorr_verify(ec, ec.generator(), m, pok, context)) {
    return std::nullopt;
  }
  return cl_sign_committed(params_.pairing, keys_.sk, commitment, rng);
}

DecBank::SerialKey DecBank::key_of(std::size_t depth,
                                   const Bigint& serial) const {
  return {depth, serial.to_bytes_be()};
}

std::size_t DecBank::shard_of(const SerialKey& key) {
  // FNV-1a over depth then the serial bytes.
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ull;
  };
  for (std::size_t i = 0; i < sizeof(std::size_t); ++i) {
    mix(static_cast<std::uint8_t>(key.first >> (8 * i)));
  }
  for (const std::uint8_t byte : key.second) mix(byte);
  return h % kShards;
}

std::vector<std::unique_lock<std::mutex>> DecBank::lock_stripes(
    const std::vector<SerialKey>& keys) {
  std::vector<std::size_t> stripes;
  stripes.reserve(keys.size());
  for (const SerialKey& key : keys) stripes.push_back(shard_of(key));
  std::sort(stripes.begin(), stripes.end());
  stripes.erase(std::unique(stripes.begin(), stripes.end()), stripes.end());
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(stripes.size());
  for (const std::size_t stripe : stripes) {
    locks.emplace_back(shards_[stripe].mu);
  }
  return locks;
}

// The *_contains / file_* helpers run with the relevant stripes already
// held by lock_stripes; they must not lock.
bool DecBank::revealed_contains(const SerialKey& key) const {
  return shards_[shard_of(key)].revealed.count(key) > 0;
}

bool DecBank::spent_contains(const SerialKey& key) const {
  return shards_[shard_of(key)].spent_nodes.count(key) > 0;
}

void DecBank::file_revealed(const SerialKey& key) {
  shards_[shard_of(key)].revealed.insert(key);
}

void DecBank::file_spent(const SerialKey& key) {
  shards_[shard_of(key)].spent_nodes.insert(key);
}

void DecBank::journal_spend_mark(const std::vector<SerialKey>& revealed,
                                 const std::vector<SerialKey>& spent) {
  if (journal_ == nullptr) return;
  storage::DecSpendMarkRecord rec;
  rec.revealed.reserve(revealed.size());
  for (const SerialKey& key : revealed) {
    rec.revealed.push_back({key.first, key.second});
  }
  rec.spent.reserve(spent.size());
  for (const SerialKey& key : spent) {
    rec.spent.push_back({key.first, key.second});
  }
  journal_->append(storage::MutationKind::kDecSpendMark,
                   storage::encode(rec));
}

SettleOutcome DecBank::settle_verified(const SpendBundle& bundle) {
  const std::size_t depth = bundle.node.depth;
  const SerialKey node_key = key_of(depth, bundle.path_serials[depth]);

  std::vector<SerialKey> path_keys;
  for (std::size_t d = 0; d <= depth; ++d) {
    path_keys.push_back(key_of(d, bundle.path_serials[d]));
  }
  // Whole-coin deposits also fence off their depth-1 children, which a
  // root-hiding spend reveals without S_0 (see the header).
  std::vector<SerialKey> child_keys;
  if (depth == 0 && params_.L >= 1) {
    for (const bool bit : {false, true}) {
      child_keys.push_back(
          key_of(1, child_serial(params_, 1, bundle.path_serials[0], bit)));
    }
  }

  std::vector<SerialKey> all_keys = path_keys;
  all_keys.insert(all_keys.end(), child_keys.begin(), child_keys.end());
  const auto locks = lock_stripes(all_keys);

  // Same node already spent, or a descendant's path already crossed it.
  if (revealed_contains(node_key)) {
    return SettleOutcome::rejected(
        MarketErrc::kDoubleSpend,
        "double spend: node or descendant already spent");
  }
  // An ancestor of this node was spent as a whole coin.
  for (std::size_t d = 0; d < depth; ++d) {
    if (spent_contains(path_keys[d])) {
      return SettleOutcome::rejected(MarketErrc::kDoubleSpend,
                                     "double spend: ancestor already spent");
    }
  }
  for (const SerialKey& key : child_keys) {
    if (revealed_contains(key)) {
      return SettleOutcome::rejected(
          MarketErrc::kDoubleSpend,
          "double spend: descendant already spent");
    }
  }
  // Journal inside the stripe locks (data lock → journal lock), so the
  // WAL's spend-mark order equals the store's commit order exactly.
  {
    std::vector<SerialKey> spent = child_keys;
    spent.push_back(node_key);
    journal_spend_mark(all_keys, spent);
  }
  for (const SerialKey& key : path_keys) file_revealed(key);
  for (const SerialKey& key : child_keys) {
    file_revealed(key);
    file_spent(key);
  }
  file_spent(node_key);
  return SettleOutcome::ok(params_.node_value(depth));
}

SettleOutcome DecBank::settle_verified(const RootHidingSpend& spend) {
  const std::size_t depth = spend.node.depth;
  // path_serials[i] is the serial at tree depth i + 1.
  const SerialKey node_key = key_of(depth, spend.path_serials[depth - 1]);

  std::vector<SerialKey> path_keys;
  for (std::size_t d = 1; d <= depth; ++d) {
    path_keys.push_back(key_of(d, spend.path_serials[d - 1]));
  }
  const auto locks = lock_stripes(path_keys);

  if (revealed_contains(node_key)) {
    return SettleOutcome::rejected(
        MarketErrc::kDoubleSpend,
        "double spend: node or descendant already spent");
  }
  for (std::size_t d = 1; d < depth; ++d) {
    if (spent_contains(path_keys[d - 1])) {
      return SettleOutcome::rejected(MarketErrc::kDoubleSpend,
                                     "double spend: ancestor already spent");
    }
  }
  journal_spend_mark(path_keys, {node_key});
  for (const SerialKey& key : path_keys) file_revealed(key);
  file_spent(node_key);
  return SettleOutcome::ok(params_.node_value(depth));
}

SettleOutcome DecBank::deposit(const DepositSpend& spend) {
  if (!verify_batch({&spend})[0]) {
    return SettleOutcome::rejected(MarketErrc::kSpendRejected,
                                   "spend verification failed");
  }
  return std::visit([this](const auto& s) { return settle_verified(s); },
                    spend);
}

std::vector<bool> DecBank::verify_batch(
    const std::vector<const DepositSpend*>& spends) const {
  static obs::Histogram& obs_engine = obs::histogram("dec.verify.engine");
  static obs::Histogram& obs_remainder =
      obs::histogram("dec.verify.remainder");
  // One engine call for the batch: the randomized product of every
  // certificate pairing equation leads, and every member's GT statement
  // (V, W) rides along — one combined Miller pass and one batched final
  // exponentiation for the whole batch's pairing bill.
  std::vector<const ClSignature*> certs;
  certs.reserve(spends.size());
  for (const DepositSpend* spend : spends) {
    certs.push_back(
        std::visit([](const auto& s) { return &s.cert; }, *spend));
  }
  SecureRandom rng = [this] {
    std::lock_guard lock(batch_rng_mu_);
    return SecureRandom(batch_rng_.next_u64());
  }();
  CertBatch cb;
  {
    obs::ScopedTimer timer(obs_engine);
    cb = verify_certs_with_statements(params_, keys_.pk, certs, rng);
  }

  // The t-dependent remainder of every spend still runs (even for
  // cert-rejected members) so the batch's op counts and timing stay in
  // line with the single verifiers on honest traffic. Regular spends
  // share one lockstep pass; root-hiding spends keep their per-member
  // cut-and-choose check.
  obs::ScopedTimer timer(obs_remainder);
  std::vector<bool> rest(spends.size());
  std::vector<const SpendBundle*> regular;
  std::vector<const GtStatement*> regular_stmts;
  std::vector<std::size_t> slot;
  for (std::size_t i = 0; i < spends.size(); ++i) {
    const GtStatement* stmt = cb.statements[i] ? &*cb.statements[i] : nullptr;
    if (const auto* hiding = std::get_if<RootHidingSpend>(spends[i])) {
      rest[i] = verify_root_hiding_spend_with_statement(
          params_, keys_.pk, *hiding, kRootHidingRounds, stmt);
    } else {
      regular.push_back(&std::get<SpendBundle>(*spends[i]));
      regular_stmts.push_back(stmt);
      slot.push_back(i);
    }
  }
  const std::vector<bool> proved =
      verify_spends_with_statements(params_, keys_.pk, regular, regular_stmts);
  for (std::size_t j = 0; j < slot.size(); ++j) rest[slot[j]] = proved[j];

  std::vector<bool> verified(spends.size());
  for (std::size_t i = 0; i < spends.size(); ++i) {
    verified[i] = cb.cert_ok[i] && rest[i];
  }
  return verified;
}

std::size_t DecBank::recorded_serials() const {
  std::size_t count = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    count += shard.revealed.size();
  }
  return count;
}

void DecBank::for_each_serial(
    const std::function<void(std::size_t depth, const Bytes& serial,
                             bool spent)>& fn) const {
  // spent_nodes ⊆ revealed (every commit files its spent keys as
  // revealed too), so iterating `revealed` with a spent flag loses
  // nothing.
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    for (const SerialKey& key : shard.revealed) {
      fn(key.first, key.second, shard.spent_nodes.count(key) > 0);
    }
  }
}

void DecBank::restore_serial(std::size_t depth, Bytes serial, bool spent) {
  SerialKey key{depth, std::move(serial)};
  Shard& shard = shards_[shard_of(key)];
  std::lock_guard lock(shard.mu);
  if (spent) shard.spent_nodes.insert(key);
  shard.revealed.insert(std::move(key));
}

}  // namespace ppms
