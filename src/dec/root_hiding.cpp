#include "dec/root_hiding.h"

#include <stdexcept>

#include "bigint/modarith.h"
#include "bigint/montgomery.h"
#include "dec/session.h"
#include "dec/statement.h"
#include "util/counters.h"
#include "obs/metrics.h"
#include "util/serial.h"
#include "zkp/transcript.h"

namespace ppms {

namespace {

// Tower statement: Y = S_1 · g_1'^{-b_1} and outer base G = g_1'^2, both
// elements of tower[1]; inner base h = g_0 with arithmetic mod o_2.
struct TowerStatement {
  Bytes Y, G;
  Bigint h;
  Bigint inner_modulus;  // o_2
};

TowerStatement tower_statement(const DecParams& params,
                               const Bigint& s1, bool b1) {
  const ZnGroup& g1 = params.tower[1];
  TowerStatement s;
  const Bytes gen = g1.generator();
  s.G = g1.op(gen, gen);
  Bytes y = g1.encode(s1);
  if (b1) y = g1.op(y, g1.inv(gen));
  s.Y = std::move(y);
  s.h = params.tower[0].generator_value();
  s.inner_modulus = params.tower[0].modulus();
  return s;
}

Bytes challenge_bits(const DecParams& params, const RootHidingSpend& spend,
                     const GtStatement& gts, const TowerStatement& ts,
                     std::size_t rounds) {
  Transcript t("ppms.dec.root_hiding");
  Writer w;
  w.put_u32(static_cast<std::uint32_t>(spend.node.depth));
  w.put_u64(spend.node.index);
  for (const Bigint& s : spend.path_serials) w.put_bytes(s.to_bytes_be());
  w.put_bytes(spend.cert.serialize(params.pairing));
  w.put_bytes(spend.context);
  t.absorb("statement", w.data());
  t.absorb("V", gts.V);
  t.absorb("W", gts.W);
  t.absorb("Y", ts.Y);
  t.absorb("G", ts.G);
  for (std::size_t i = 0; i < spend.tower_commitments.size(); ++i) {
    t.absorb("T", spend.tower_commitments[i]);
    t.absorb("U", spend.gt_commitments[i]);
  }
  return t.challenge_bytes("bits", (rounds + 7) / 8);
}

bool bit_at(const Bytes& bits, std::size_t i) {
  return (bits[i / 8] >> (i % 8)) & 1;
}

}  // namespace

Bytes RootHidingSpend::serialize(const DecParams& params) const {
  Writer w;
  w.put_u32(static_cast<std::uint32_t>(node.depth));
  w.put_u64(node.index);
  w.put_u32(static_cast<std::uint32_t>(path_serials.size()));
  for (const Bigint& s : path_serials) w.put_bytes(s.to_bytes_be());
  w.put_bytes(cert.serialize(params.pairing));
  w.put_u32(static_cast<std::uint32_t>(responses.size()));
  for (std::size_t i = 0; i < responses.size(); ++i) {
    w.put_bytes(tower_commitments[i]);
    w.put_bytes(gt_commitments[i]);
    w.put_bytes(responses[i].to_bytes_be());
  }
  w.put_bytes(context);
  return w.take();
}

RootHidingSpend RootHidingSpend::deserialize(const DecParams& params,
                                             const Bytes& data) {
  Reader r(data);
  RootHidingSpend spend;
  spend.node.depth = r.get_u32();
  spend.node.index = r.get_u64();
  const std::uint32_t n_serials = r.get_u32();
  for (std::uint32_t i = 0; i < n_serials; ++i) {
    spend.path_serials.push_back(Bigint::from_bytes_be(r.get_bytes()));
  }
  spend.cert = ClSignature::deserialize(params.pairing, r.get_bytes());
  const std::uint32_t n_rounds = r.get_u32();
  for (std::uint32_t i = 0; i < n_rounds; ++i) {
    spend.tower_commitments.push_back(r.get_bytes());
    spend.gt_commitments.push_back(r.get_bytes());
    spend.responses.push_back(Bigint::from_bytes_be(r.get_bytes()));
  }
  spend.context = r.get_bytes();
  if (!r.exhausted()) {
    throw std::invalid_argument("RootHidingSpend: trailing");
  }
  return spend;
}

RootHidingSpend make_root_hiding_spend(const DecParams& params,
                                       const ClPublicKey& bank_pk,
                                       const Bigint& t,
                                       const ClSignature& cert,
                                       const NodeIndex& node,
                                       SecureRandom& rng,
                                       const Bytes& context,
                                       std::size_t rounds) {
  count_op(OpKind::Zkp);
  static obs::Counter& obs_zkp = obs::counter("zkp.prove");
  if (!op_counting_paused()) obs_zkp.add();
  static obs::Histogram& obs_lat = obs::histogram("zkp.prove");
  obs::ScopedTimer obs_timer(obs_lat);
  check_node(params, node);
  if (node.depth == 0) {
    throw std::invalid_argument(
        "root_hiding_spend: root node cannot hide its own serial");
  }
  if (rounds == 0 || rounds > 128) {
    throw std::invalid_argument("root_hiding_spend: bad round count");
  }

  RootHidingSpend spend;
  spend.node = node;
  const auto full_path = serial_path(params, t, node);
  spend.path_serials.assign(full_path.begin() + 1, full_path.end());
  spend.cert = cl_randomize(params.pairing, cert, rng);
  spend.context = context;

  const DecSession& session = params.session();
  const GtGroup& gt = session.gt();
  const GtStatement gts = gt_statement(params, bank_pk, spend.cert);
  const TowerStatement ts =
      tower_statement(params, spend.path_serials.front(),
                      node.branch_bit(1));
  const ZnGroup& g1 = params.tower[1];
  const Bigint& r_order = params.pairing.r;  // == o_1

  // The inner base h and modulus (tower prime o_2) are fixed across all
  // rounds: one digit table turns every h^nonce into a handful of
  // Montgomery products instead of a full ladder per round.
  const FixedBasePow h_pow(fp_ctx(ts.inner_modulus), ts.h,
                           r_order.bit_length());
  std::vector<Bigint> nonces;
  nonces.reserve(rounds);
  for (std::size_t i = 0; i < rounds; ++i) {
    nonces.push_back(Bigint::random_below(rng, r_order));
    const Bigint h_r = h_pow.pow(nonces.back());
    spend.tower_commitments.push_back(g1.pow(ts.G, h_r));
    spend.gt_commitments.push_back(gt.pow(gts.V, nonces.back()));
  }
  const Bytes bits = challenge_bits(params, spend, gts, ts, rounds);
  spend.responses.reserve(rounds);
  for (std::size_t i = 0; i < rounds; ++i) {
    spend.responses.push_back(
        bit_at(bits, i) ? (nonces[i] - t).mod(r_order) : nonces[i]);
  }
  return spend;
}

namespace {

// Shared verification core; `check_cert` is false when the bank has
// already decided the certificate pairing equation for a whole batch, and
// a non-null `stmt` is the certificate statement it computed alongside.
bool verify_hiding_core(const DecParams& params, const ClPublicKey& bank_pk,
                        const RootHidingSpend& spend, std::size_t rounds,
                        bool check_cert, const GtStatement* stmt) {
  // Structure.
  if (spend.node.depth == 0 || spend.node.depth > params.L) return false;
  if (spend.node.depth < 64 &&
      spend.node.index >= (1ull << spend.node.depth)) {
    return false;
  }
  if (spend.path_serials.size() != spend.node.depth) return false;
  if (spend.responses.size() != rounds ||
      spend.tower_commitments.size() != rounds ||
      spend.gt_commitments.size() != rounds) {
    return false;
  }

  // Serial ranges at depths 1..d, subgroup membership at depth 1 only:
  // the chain links below pin every deeper serial to child_serial's
  // output, a power of that level's generator and hence always a member,
  // so a non-member serial fails the link check instead.
  for (std::size_t d = 1; d <= spend.node.depth; ++d) {
    const ZnGroup& g = params.tower[d];
    const Bigint& s = spend.path_serials[d - 1];
    if (s.is_negative() || s >= g.modulus()) return false;
  }
  {
    const ZnGroup& g1 = params.tower[1];
    if (!g1.contains(g1.encode(spend.path_serials[0]))) return false;
  }
  for (std::size_t step = 2; step <= spend.node.depth; ++step) {
    const Bigint expected =
        child_serial(params, step, spend.path_serials[step - 2],
                     spend.node.branch_bit(step));
    if (spend.path_serials[step - 1] != expected) return false;
  }

  // Certificate points (the statement needs them on-curve) and, unless
  // the caller already batch-decided it, the pairing half-check.
  if (spend.cert.a.infinity) return false;
  if (!ec_on_curve(spend.cert.a, params.pairing.p) ||
      !ec_on_curve(spend.cert.b, params.pairing.p) ||
      !ec_on_curve(spend.cert.c, params.pairing.p)) {
    return false;
  }
  if (check_cert && !verify_cert_equation(params, bank_pk, spend.cert)) {
    return false;
  }
  const DecSession& session = params.session();
  const GtGroup& gt = session.gt();
  const GtStatement gts =
      stmt != nullptr ? *stmt : gt_statement(params, bank_pk, spend.cert);
  if (gts.V == gt.identity()) return false;

  // Cut-and-choose rounds.
  const TowerStatement ts =
      tower_statement(params, spend.path_serials.front(),
                      spend.node.branch_bit(1));
  const ZnGroup& g1 = params.tower[1];
  const Bigint& r_order = params.pairing.r;
  const Bytes bits = challenge_bits(params, spend, gts, ts, rounds);
  const FixedBasePow h_pow(fp_ctx(ts.inner_modulus), ts.h,
                           r_order.bit_length());  // shared by all rounds
  for (std::size_t i = 0; i < rounds; ++i) {
    const Bigint& z = spend.responses[i];
    if (z.is_negative() || z >= r_order) return false;
    const Bigint h_z = h_pow.pow(z);
    if (bit_at(bits, i)) {
      // T_i == Y^(h^z) and U_i == W · V^z.
      if (spend.tower_commitments[i] != g1.pow(ts.Y, h_z)) return false;
      if (spend.gt_commitments[i] != gt.op(gts.W, gt.pow(gts.V, z))) {
        return false;
      }
    } else {
      // T_i == G^(h^z) and U_i == V^z.
      if (spend.tower_commitments[i] != g1.pow(ts.G, h_z)) return false;
      if (spend.gt_commitments[i] != gt.pow(gts.V, z)) return false;
    }
  }
  return true;
}

}  // namespace

bool verify_root_hiding_spend(const DecParams& params,
                              const ClPublicKey& bank_pk,
                              const RootHidingSpend& spend,
                              std::size_t rounds) {
  count_op(OpKind::Zkp);
  static obs::Counter& obs_zkp = obs::counter("zkp.verify");
  if (!op_counting_paused()) obs_zkp.add();
  static obs::Histogram& obs_lat = obs::histogram("zkp.verify");
  obs::ScopedTimer obs_timer(obs_lat);
  return verify_hiding_core(params, bank_pk, spend, rounds,
                            /*check_cert=*/true, nullptr);
}

bool verify_root_hiding_spend_with_statement(const DecParams& params,
                                             const ClPublicKey& bank_pk,
                                             const RootHidingSpend& spend,
                                             std::size_t rounds,
                                             const GtStatement* stmt) {
  count_op(OpKind::Zkp);
  static obs::Counter& obs_zkp = obs::counter("zkp.verify");
  if (!op_counting_paused()) obs_zkp.add();
  static obs::Histogram& obs_lat = obs::histogram("zkp.verify");
  obs::ScopedTimer obs_timer(obs_lat);
  return verify_hiding_core(params, bank_pk, spend, rounds,
                            /*check_cert=*/false, stmt);
}

}  // namespace ppms
