#include "zkp/equality.h"

#include <chrono>
#include <stdexcept>

#include "util/counters.h"
#include "obs/metrics.h"
#include "util/serial.h"

namespace ppms {

namespace {

Bigint derive_challenge(const Group& group1, const Bytes& g1, const Bytes& y1,
                        const Group& group2, const Bytes& g2, const Bytes& y2,
                        const Bytes& a1, const Bytes& a2,
                        const Bytes& context) {
  Transcript t("ppms.zkp.equality");
  t.absorb("group1", group1.describe());
  t.absorb("g1", g1);
  t.absorb("y1", y1);
  t.absorb("group2", group2.describe());
  t.absorb("g2", g2);
  t.absorb("y2", y2);
  t.absorb("A1", a1);
  t.absorb("A2", a2);
  t.absorb("context", context);
  return t.challenge("c", group1.order());
}

}  // namespace

Bytes EqualityProof::serialize() const {
  Writer w;
  w.put_bytes(commitment1);
  w.put_bytes(commitment2);
  w.put_bytes(response.to_bytes_be());
  return w.take();
}

EqualityProof EqualityProof::deserialize(const Bytes& data) {
  Reader r(data);
  EqualityProof proof;
  proof.commitment1 = r.get_bytes();
  proof.commitment2 = r.get_bytes();
  proof.response = Bigint::from_bytes_be(r.get_bytes());
  if (!r.exhausted()) throw std::invalid_argument("EqualityProof: trailing");
  return proof;
}

EqualityProof equality_prove(const Group& group1, const Bytes& g1,
                             const Bytes& y1, const Group& group2,
                             const Bytes& g2, const Bytes& y2,
                             const Bigint& x, SecureRandom& rng,
                             const Bytes& context) {
  count_op(OpKind::Zkp);
  static obs::Counter& obs_zkp = obs::counter("zkp.prove");
  if (!op_counting_paused()) obs_zkp.add();
  static obs::Histogram& obs_lat = obs::histogram("zkp.prove");
  obs::ScopedTimer obs_timer(obs_lat);
  if (group1.order() != group2.order()) {
    throw std::invalid_argument("equality_prove: group order mismatch");
  }
  const Bigint k = Bigint::random_below(rng, group1.order());
  EqualityProof proof;
  proof.commitment1 = group1.pow(g1, k);
  proof.commitment2 = group2.pow(g2, k);
  const Bigint c = derive_challenge(group1, g1, y1, group2, g2, y2,
                                    proof.commitment1, proof.commitment2,
                                    context);
  proof.response = (k + c * x).mod(group1.order());
  return proof;
}

std::vector<bool> equality_verify_many(
    const Group& group1, const Group& group2,
    const std::vector<EqualityInstance>& instances, bool trusted_statement) {
  static obs::Counter& obs_zkp = obs::counter("zkp.verify");
  static obs::Histogram& obs_lat = obs::histogram("zkp.verify");
  const bool timed = obs::metrics_enabled();
  const auto t0 = timed ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
  const std::size_t n = instances.size();
  for (std::size_t i = 0; i < n; ++i) {
    count_op(OpKind::Zkp);
    if (!op_counting_paused()) obs_zkp.add();
  }
  std::vector<bool> ok(n, false);
  if (group1.order() == group2.order()) {
    const Bigint& q = group1.order();
    // Per-instance checks; survivors keep their challenge.
    std::vector<std::size_t> live;
    std::vector<Bigint> challenge(n);
    for (std::size_t i = 0; i < n; ++i) {
      const EqualityInstance& in = instances[i];
      if (!trusted_statement &&
          (!group1.contains(*in.y1) || !group2.contains(*in.y2))) {
        continue;
      }
      if (!group2.contains(in.proof->commitment2)) continue;
      if (in.proof->response.is_negative() || in.proof->response >= q) {
        continue;
      }
      challenge[i] = derive_challenge(
          group1, *in.g1, *in.y1, group2, *in.g2, *in.y2,
          in.proof->commitment1, in.proof->commitment2, *in.context);
      live.push_back(i);
    }
    // A1 membership for every survivor, in one call.
    std::vector<const Bytes*> a1;
    a1.reserve(live.size());
    for (const std::size_t i : live) {
      a1.push_back(&instances[i].proof->commitment1);
    }
    const std::vector<bool> member = group1.contains_many(a1);
    // g^z · y^{q-c} == A in each group; group1's chains in one call.
    std::vector<std::size_t> eq;
    std::vector<Group::Pow2Job> jobs;
    for (std::size_t j = 0; j < live.size(); ++j) {
      if (!member[j]) continue;
      const EqualityInstance& in = instances[live[j]];
      const Bigint q_minus_c = (q - challenge[live[j]]).mod(q);
      if (group2.pow2(*in.g2, in.proof->response, *in.y2, q_minus_c) !=
          in.proof->commitment2) {
        continue;
      }
      eq.push_back(live[j]);
      jobs.push_back({in.g1, in.proof->response, in.y1, q_minus_c});
    }
    const std::vector<Bytes> lhs = group1.pow2_many(jobs);
    for (std::size_t j = 0; j < eq.size(); ++j) {
      ok[eq[j]] = lhs[j] == instances[eq[j]].proof->commitment1;
    }
  }
  // One latency sample per instance: its share of the batch.
  if (timed && n > 0) {
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    for (std::size_t i = 0; i < n; ++i) {
      obs_lat.observe(static_cast<std::uint64_t>(us) / n);
    }
  }
  return ok;
}

bool equality_verify(const Group& group1, const Bytes& g1, const Bytes& y1,
                     const Group& group2, const Bytes& g2, const Bytes& y2,
                     const EqualityProof& proof, const Bytes& context) {
  return equality_verify_many(group1, group2,
                              {EqualityInstance{&g1, &y1, &g2, &y2, &proof,
                                                &context}},
                              /*trusted_statement=*/false)[0];
}

}  // namespace ppms
