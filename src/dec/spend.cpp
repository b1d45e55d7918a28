#include "dec/spend.h"

#include <optional>
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

// Terms of the randomized product ∏_j [ê(Y,a_j)·ê(g,b_j)⁻¹]^{δ_j}, or
// nothing when a member is malformed (the caller then decides every
// certificate alone, which identifies it).
std::optional<std::vector<PairingTerm>> cert_batch_terms(
    const DecParams& params, const DecSession& session,
    const ClPkPrecomp& pre_pk, const std::vector<const ClSignature*>& certs,
    SecureRandom& rng) {
  std::vector<PairingTerm> terms;
  terms.reserve(certs.size() * 2);
  for (const ClSignature* cert : certs) {
    if (cert == nullptr || !cert_points_ok(params, *cert)) {
      return std::nullopt;
    }
    const Bigint d = batch_scalar(rng, params.pairing.r);
    terms.push_back(PairingTerm{.pre = &pre_pk.Y, .Q = cert->a, .exp = d});
    terms.push_back(PairingTerm{.pre = &session.pre_g(), .Q = cert->b,
                                .exp = d, .invert = true});
  }
  return terms;
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

// Equality-proof half: ties the hidden t to both the certificate and S_0.
bool spend_proof_ok(const DecParams& params, const SpendBundle& bundle,
                    const GtStatement& stmt) {
  const GtGroup& gt = params.session().gt();
  // A degenerate base V = 1 would void soundness; reject it.
  if (stmt.V == gt.identity()) return false;
  const ZnGroup& g1 = params.tower[0];
  // The statement halves are already known members: W is a pairing
  // output (always in GT), and the root serial's tower membership was
  // checked in spend_structure_ok. Skipping their re-checks saves two
  // group exponentiations per spend; the attacker-chosen commitments are
  // still validated inside.
  return equality_verify_trusted_statement(
      gt, stmt.V, stmt.W, g1, g1.generator(),
      g1.encode(bundle.path_serials.front()), bundle.proof,
      spend_binding(params, bundle));
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
  const auto terms = cert_batch_terms(params, session, *pre_pk, certs, rng);
  std::vector<const ClSignature*> formed;
  std::vector<std::size_t> slot;
  for (std::size_t j = 0; j < certs.size(); ++j) {
    if (certs[j] != nullptr && cert_points_ok(params, *certs[j])) {
      formed.push_back(certs[j]);
      slot.push_back(j);
    }
  }
  Bytes product;
  std::vector<GtStatement> stmts =
      gt_statements(session, *pre_pk, formed,
                    terms ? &*terms : nullptr, &product);
  for (std::size_t i = 0; i < slot.size(); ++i) {
    out.statements[slot[i]] = std::move(stmts[i]);
  }
  if (terms && product == session.gt().identity()) {
    out.cert_ok.assign(certs.size(), true);
  } else {
    out.cert_ok =
        certs_one_by_one(params, session, pre_pk.get(), bank_pk, certs);
  }
  return out;
}

bool verify_spend_with_statement(const DecParams& params,
                                 const ClPublicKey& bank_pk,
                                 const SpendBundle& bundle,
                                 const GtStatement* stmt) {
  if (!spend_structure_ok(params, bundle)) return false;
  return spend_proof_ok(params, bundle,
                        stmt != nullptr
                            ? *stmt
                            : gt_statement(params, bank_pk, bundle.cert));
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
  return spend_proof_ok(params, bundle,
                        gt_statement(params, bank_pk, bundle.cert));
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
  if (pre_pk != nullptr) {  // otherwise: off-curve bank key
    const auto terms = cert_batch_terms(params, session, *pre_pk, certs, rng);
    if (terms && session.gt().pair_product(*terms) == session.gt().identity()) {
      return std::vector<bool>(certs.size(), true);
    }
  }
  return certs_one_by_one(params, session, pre_pk.get(), bank_pk, certs);
}

bool verify_spend_assuming_cert(const DecParams& params,
                                const ClPublicKey& bank_pk,
                                const SpendBundle& bundle) {
  return verify_spend_with_statement(params, bank_pk, bundle, nullptr);
}

}  // namespace ppms
