#include "dec/spend.h"

#include <stdexcept>

#include "dec/session.h"
#include "dec/statement.h"
#include "util/serial.h"

namespace ppms {

namespace {

// Certificate point well-formedness shared by both halves of the split
// verification.
bool cert_points_ok(const DecParams& params, const ClSignature& cert) {
  if (cert.a.infinity) return false;
  return ec_on_curve(cert.a, params.pairing.p) &&
         ec_on_curve(cert.b, params.pairing.p) &&
         ec_on_curve(cert.c, params.pairing.p);
}

// ê(a, Y) == ê(g, b) as one product of pairings (points pre-validated).
bool cert_eq1_holds(const DecSession& session, const ClPkPrecomp* pre_pk,
                    const ClPublicKey& bank_pk, const ClSignature& cert) {
  const GtGroup& gt = session.gt();
  if (pre_pk != nullptr) {
    return gt.pair_product({
               PairingTerm{.pre = &pre_pk->Y, .Q = cert.a},
               PairingTerm{.pre = &session.pre_g(), .Q = cert.b,
                           .invert = true},
           }) == gt.identity();
  }
  return gt.pair(cert.a, bank_pk.Y) == gt.pair(gt.params().g, cert.b);
}

// Indices of the certificates with well-formed points (null entries are
// not), each checked once.
std::vector<std::size_t> well_formed(
    const DecParams& params, const std::vector<const ClSignature*>& certs) {
  std::vector<std::size_t> formed;
  for (std::size_t j = 0; j < certs.size(); ++j) {
    if (certs[j] != nullptr && cert_points_ok(params, *certs[j])) {
      formed.push_back(j);
    }
  }
  return formed;
}

// Terms of the randomized product ∏_j [ê(Y,a_j)·ê(g,b_j)⁻¹]^{δ_j} over the
// listed certificates (every one well-formed). A lone certificate takes
// δ = 1: GT has prime order, so its product is its own equation.
std::vector<PairingTerm> cert_batch_terms(
    const DecParams& params, const DecSession& session,
    const ClPkPrecomp& pre_pk, const std::vector<std::size_t>& formed,
    const std::vector<const ClSignature*>& certs, SecureRandom& rng) {
  std::vector<PairingTerm> terms;
  terms.reserve(formed.size() * 2);
  for (const std::size_t j : formed) {
    const Bigint d = formed.size() == 1 ? Bigint(1)
                                        : batch_scalar(rng, params.pairing.r);
    terms.push_back(PairingTerm{.pre = &pre_pk.Y, .Q = certs[j]->a, .exp = d});
    terms.push_back(PairingTerm{.pre = &session.pre_g(), .Q = certs[j]->b,
                                .exp = d, .invert = true});
  }
  return terms;
}

// Flags once the product over the well-formed members is known: all of
// them true when it is 1, otherwise each decided alone. Malformed members
// are false either way, so one of them never costs the rest their batch.
std::vector<bool> decide_certs(const DecSession& session,
                               const ClPkPrecomp& pre_pk,
                               const ClPublicKey& bank_pk,
                               const std::vector<const ClSignature*>& certs,
                               const std::vector<std::size_t>& formed,
                               bool product_is_one) {
  std::vector<bool> ok(certs.size(), false);
  for (const std::size_t j : formed) {
    ok[j] = product_is_one ||
            cert_eq1_holds(session, &pre_pk, bank_pk, *certs[j]);
  }
  return ok;
}

// verify_cert_equation for each member on its own (null entries false).
std::vector<bool> certs_one_by_one(
    const DecParams& params, const DecSession& session,
    const ClPkPrecomp* pre_pk, const ClPublicKey& bank_pk,
    const std::vector<const ClSignature*>& certs) {
  std::vector<bool> ok(certs.size());
  for (std::size_t j = 0; j < certs.size(); ++j) {
    ok[j] = certs[j] != nullptr && cert_points_ok(params, *certs[j]) &&
            cert_eq1_holds(session, pre_pk, bank_pk, *certs[j]);
  }
  return ok;
}

// Structure, serial membership and chain links (everything before the
// pairing checks in the original verify_spend).
bool spend_structure_ok(const DecParams& params, const SpendBundle& bundle) {
  if (bundle.node.depth > params.L) return false;
  if (bundle.node.depth < 64 &&
      bundle.node.index >= (1ull << bundle.node.depth)) {
    return false;
  }
  if (bundle.path_serials.size() != bundle.node.depth + 1) return false;

  // Serial ranges at every level, subgroup membership at the root only.
  // Deeper levels need no membership exponentiation: the chain-link check
  // below pins S_d to child_serial's output, which is a power of the
  // level-d generator and hence always a subgroup member — a non-member
  // S_d can never equal it, so the link check rejects exactly the bundles
  // the per-level membership loop used to.
  for (std::size_t d = 0; d <= bundle.node.depth; ++d) {
    const ZnGroup& g = params.tower[d];
    const Bigint& s = bundle.path_serials[d];
    if (s.is_negative() || s >= g.modulus()) return false;
  }
  {
    const ZnGroup& g1 = params.tower[0];
    if (!g1.contains(g1.encode(bundle.path_serials[0]))) return false;
  }
  // Chain links: each serial is the declared child of its parent.
  for (std::size_t step = 1; step <= bundle.node.depth; ++step) {
    const Bigint expected =
        child_serial(params, step, bundle.path_serials[step - 1],
                     bundle.node.branch_bit(step));
    if (bundle.path_serials[step] != expected) return false;
  }
  return cert_points_ok(params, bundle.cert);
}

// Equality-proof half of every listed bundle against its statement: ties
// each hidden t to both the certificate and S_0. A null statement marks a
// bundle already decided false, and a degenerate base V = 1 would void
// soundness, so such a bundle is false without a proof check; the rest go
// through one equality_verify_many call. The statement halves are already
// known members: W is a pairing output (always in GT), and the root
// serial's tower membership was checked in spend_structure_ok. Skipping
// their re-checks saves two group exponentiations per spend; the
// attacker-chosen commitments are still validated inside.
std::vector<bool> spend_proofs_ok(
    const DecParams& params, const std::vector<const SpendBundle*>& bundles,
    const std::vector<const GtStatement*>& stmts) {
  const GtGroup& gt = params.session().gt();
  const ZnGroup& g1 = params.tower[0];
  const Bytes gen = g1.generator();
  const Bytes unit = gt.identity();
  const std::size_t n = bundles.size();
  std::vector<Bytes> s0(n), binding(n);
  std::vector<EqualityInstance> instances;
  std::vector<std::size_t> slot;
  for (std::size_t i = 0; i < n; ++i) {
    if (stmts[i] == nullptr || stmts[i]->V == unit) continue;
    s0[i] = g1.encode(bundles[i]->path_serials.front());
    binding[i] = spend_binding(params, *bundles[i]);
    instances.push_back(EqualityInstance{&stmts[i]->V, &stmts[i]->W, &gen,
                                         &s0[i], &bundles[i]->proof,
                                         &binding[i]});
    slot.push_back(i);
  }
  const std::vector<bool> proved =
      equality_verify_many(gt, g1, instances, /*trusted_statement=*/true);
  std::vector<bool> ok(n, false);
  for (std::size_t j = 0; j < slot.size(); ++j) ok[slot[j]] = proved[j];
  return ok;
}

}  // namespace

std::vector<GtStatement> gt_statements(
    const DecSession& session, const ClPkPrecomp& pre_pk,
    const std::vector<const ClSignature*>& certs,
    const std::vector<PairingTerm>* lead, Bytes* lead_value) {
  std::vector<std::vector<PairingTerm>> products;
  products.reserve(2 * certs.size() + 1);
  if (lead != nullptr) products.push_back(*lead);
  for (const ClSignature* cert : certs) {
    products.push_back({PairingTerm{.pre = &pre_pk.X, .Q = cert->b}});
    products.push_back({
        PairingTerm{.pre = &session.pre_g(), .Q = cert->c},
        PairingTerm{.pre = &pre_pk.X, .Q = cert->a, .invert = true},
    });
  }
  std::vector<Bytes> values = session.gt().pair_products(products);
  std::size_t next = 0;
  if (lead != nullptr) *lead_value = std::move(values[next++]);
  std::vector<GtStatement> out(certs.size());
  for (GtStatement& s : out) {
    s.V = std::move(values[next++]);
    s.W = std::move(values[next++]);
  }
  return out;
}

GtStatement gt_statement(const DecParams& params, const ClPublicKey& bank_pk,
                         const ClSignature& cert) {
  const DecSession& session = params.session();
  if (const auto pre_pk = session.pk_tables(bank_pk)) {
    return gt_statements(session, *pre_pk, {&cert})[0];
  }
  const GtGroup& gt = session.gt();
  GtStatement s;
  s.V = gt.pair(bank_pk.X, cert.b);
  const Bytes gc = gt.pair(gt.params().g, cert.c);
  const Bytes xa = gt.pair(bank_pk.X, cert.a);
  s.W = gt.op(gc, gt.inv(xa));
  return s;
}

CertBatch verify_certs_with_statements(
    const DecParams& params, const ClPublicKey& bank_pk,
    const std::vector<const ClSignature*>& certs, SecureRandom& rng) {
  CertBatch out;
  out.statements.resize(certs.size());
  if (certs.empty()) return out;
  const DecSession& session = params.session();
  const auto pre_pk = session.pk_tables(bank_pk);
  if (pre_pk == nullptr) {  // off-curve bank key
    out.cert_ok = certs_one_by_one(params, session, nullptr, bank_pk, certs);
    return out;
  }
  const std::vector<std::size_t> formed = well_formed(params, certs);
  std::vector<const ClSignature*> formed_certs;
  for (const std::size_t j : formed) formed_certs.push_back(certs[j]);
  const std::vector<PairingTerm> terms =
      cert_batch_terms(params, session, *pre_pk, formed, certs, rng);
  Bytes product;
  std::vector<GtStatement> stmts =
      gt_statements(session, *pre_pk, formed_certs, &terms, &product);
  for (std::size_t i = 0; i < formed.size(); ++i) {
    out.statements[formed[i]] = std::move(stmts[i]);
  }
  out.cert_ok = decide_certs(session, *pre_pk, bank_pk, certs, formed,
                             product == session.gt().identity());
  return out;
}

std::vector<bool> verify_spends_with_statements(
    const DecParams& params, const ClPublicKey& bank_pk,
    const std::vector<const SpendBundle*>& bundles,
    const std::vector<const GtStatement*>& stmts) {
  std::vector<GtStatement> own(bundles.size());
  std::vector<const GtStatement*> use(bundles.size(), nullptr);
  for (std::size_t i = 0; i < bundles.size(); ++i) {
    if (!spend_structure_ok(params, *bundles[i])) continue;
    if (stmts[i] == nullptr) {
      own[i] = gt_statement(params, bank_pk, bundles[i]->cert);
      use[i] = &own[i];
    } else {
      use[i] = stmts[i];
    }
  }
  return spend_proofs_ok(params, bundles, use);
}

Bytes SpendBundle::serialize(const DecParams& params) const {
  Writer w;
  w.put_u32(static_cast<std::uint32_t>(node.depth));
  w.put_u64(node.index);
  w.put_u32(static_cast<std::uint32_t>(path_serials.size()));
  for (const Bigint& s : path_serials) w.put_bytes(s.to_bytes_be());
  w.put_bytes(cert.serialize(params.pairing));
  w.put_bytes(proof.serialize());
  w.put_bytes(context);
  return w.take();
}

SpendBundle SpendBundle::deserialize(const DecParams& params,
                                     const Bytes& data) {
  Reader r(data);
  SpendBundle bundle;
  bundle.node.depth = r.get_u32();
  bundle.node.index = r.get_u64();
  const std::uint32_t n = r.get_u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    bundle.path_serials.push_back(Bigint::from_bytes_be(r.get_bytes()));
  }
  bundle.cert = ClSignature::deserialize(params.pairing, r.get_bytes());
  bundle.proof = EqualityProof::deserialize(r.get_bytes());
  bundle.context = r.get_bytes();
  if (!r.exhausted()) throw std::invalid_argument("SpendBundle: trailing");
  return bundle;
}

Bytes spend_binding(const DecParams& params, const SpendBundle& bundle) {
  Writer w;
  w.put_u32(static_cast<std::uint32_t>(bundle.node.depth));
  w.put_u64(bundle.node.index);
  for (const Bigint& s : bundle.path_serials) w.put_bytes(s.to_bytes_be());
  w.put_bytes(bundle.cert.serialize(params.pairing));
  w.put_bytes(bundle.context);
  return w.take();
}

SpendBundle make_spend(const DecParams& params, const ClPublicKey& bank_pk,
                       const Bigint& t, const ClSignature& cert,
                       const NodeIndex& node, SecureRandom& rng,
                       const Bytes& context) {
  check_node(params, node);
  SpendBundle bundle;
  bundle.node = node;
  bundle.path_serials = serial_path(params, t, node);
  bundle.cert = cl_randomize(params.pairing, cert, rng);
  bundle.context = context;

  const GtGroup& gt = params.session().gt();
  const GtStatement stmt = gt_statement(params, bank_pk, bundle.cert);
  const ZnGroup& g1 = params.tower[0];
  bundle.proof = equality_prove(
      gt, stmt.V, stmt.W, g1, g1.generator(),
      g1.encode(bundle.path_serials.front()), t, rng,
      spend_binding(params, bundle));
  return bundle;
}

bool verify_spend(const DecParams& params, const ClPublicKey& bank_pk,
                  const SpendBundle& bundle) {
  if (!spend_structure_ok(params, bundle)) return false;
  // Certificate half-check (the t-independent pairing equation) before
  // the more expensive equality proof, as in the unsplit original.
  const DecSession& session = params.session();
  const auto pre_pk = session.pk_tables(bank_pk);
  if (!cert_eq1_holds(session, pre_pk.get(), bank_pk, bundle.cert)) {
    return false;
  }
  const GtStatement stmt = gt_statement(params, bank_pk, bundle.cert);
  return spend_proofs_ok(params, {&bundle}, {&stmt})[0];
}

bool verify_cert_equation(const DecParams& params, const ClPublicKey& bank_pk,
                          const ClSignature& cert) {
  if (!cert_points_ok(params, cert)) return false;
  const DecSession& session = params.session();
  const auto pre_pk = session.pk_tables(bank_pk);
  return cert_eq1_holds(session, pre_pk.get(), bank_pk, cert);
}

std::vector<bool> verify_cert_equation_batch(
    const DecParams& params, const ClPublicKey& bank_pk,
    const std::vector<const ClSignature*>& certs, SecureRandom& rng) {
  if (certs.empty()) return {};
  const DecSession& session = params.session();
  const auto pre_pk = session.pk_tables(bank_pk);
  if (pre_pk == nullptr) {  // off-curve bank key
    return certs_one_by_one(params, session, nullptr, bank_pk, certs);
  }
  const std::vector<std::size_t> formed = well_formed(params, certs);
  const std::vector<PairingTerm> terms =
      cert_batch_terms(params, session, *pre_pk, formed, certs, rng);
  return decide_certs(
      session, *pre_pk, bank_pk, certs, formed,
      session.gt().pair_product(terms) == session.gt().identity());
}

bool verify_spend_assuming_cert(const DecParams& params,
                                const ClPublicKey& bank_pk,
                                const SpendBundle& bundle) {
  return verify_spends_with_statements(params, bank_pk, {&bundle},
                                       {nullptr})[0];
}

}  // namespace ppms
