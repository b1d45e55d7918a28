#include "pairing/curve.h"

#include <memory>
#include <stdexcept>

#include "bigint/limbs.h"

namespace ppms {

bool ec_on_curve(const EcPoint& pt, const Bigint& p) {
  if (pt.infinity) return true;
  if (pt.x.is_negative() || pt.x >= p || pt.y.is_negative() || pt.y >= p) {
    return false;
  }
  // y² == x³ + x in the Montgomery domain: two conversions and three
  // products, against three division-reduced Bigint products.
  const std::shared_ptr<const FpCtx> ctx = fp_ctx(p);
  const FpCtx& F = *ctx;
  const FpElem x = F.to_mont(pt.x);
  const FpElem y = F.to_mont(pt.y);
  FpElem lhs, rhs;
  F.sqr(lhs, y);
  F.sqr(rhs, x);
  F.mul(rhs, rhs, x);
  F.add(rhs, rhs, x);
  return F.equal(lhs, rhs);
}

EcPoint ec_neg(const EcPoint& a, const Bigint& p) {
  if (a.infinity) return a;
  return EcPoint{a.x, fp_neg(a.y, p), false};
}

EcPoint ec_add(const EcPoint& a, const EcPoint& b, const Bigint& p) {
  if (a.infinity) return b;
  if (b.infinity) return a;
  if (a.x == b.x) {
    if (fp_add(a.y, b.y, p).is_zero()) return EcPoint::at_infinity();
    // Doubling: lambda = (3x² + 1) / 2y.
    const Bigint x2 = fp_mul(a.x, a.x, p);
    const Bigint num = fp_add(fp_add(fp_add(x2, x2, p), x2, p), Bigint(1), p);
    const Bigint lambda = fp_mul(num, fp_inv(fp_add(a.y, a.y, p), p), p);
    const Bigint x3 = fp_sub(fp_mul(lambda, lambda, p),
                             fp_add(a.x, a.x, p), p);
    const Bigint y3 =
        fp_sub(fp_mul(lambda, fp_sub(a.x, x3, p), p), a.y, p);
    return EcPoint{x3, y3, false};
  }
  const Bigint lambda =
      fp_mul(fp_sub(b.y, a.y, p), fp_inv(fp_sub(b.x, a.x, p), p), p);
  const Bigint x3 =
      fp_sub(fp_sub(fp_mul(lambda, lambda, p), a.x, p), b.x, p);
  const Bigint y3 = fp_sub(fp_mul(lambda, fp_sub(a.x, x3, p), p), a.y, p);
  return EcPoint{x3, y3, false};
}

EcPoint ec_mul_affine(const EcPoint& a, const Bigint& k, const Bigint& p) {
  if (k.is_negative()) {
    throw std::invalid_argument("ec_mul: negative scalar");
  }
  EcPoint result = EcPoint::at_infinity();
  for (std::size_t i = k.bit_length(); i-- > 0;) {
    result = ec_add(result, result, p);
    if (k.bit(i)) result = ec_add(result, a, p);
  }
  return result;
}

namespace {

// One lane of ec_mul_many: the running point R in Jacobian coordinates
// (x = X/Z², y = Y/Z³, Montgomery form; Z = 0 is infinity), the affine
// base P with both signs of its y, and scratch for the formula stages.
struct Lane {
  FpElem X, Y, Z;
  FpElem px, py, ny;
  FpElem t[12];
};

using LaneIds = std::vector<std::size_t>;

// R ← 2R on every listed lane (dbl-2007-bl with a = 1), one lane-batch
// flush per formula stage. No lane needs a branch: Z₃ = 2·Y·Z is zero
// exactly when R is infinity or has order 2 (Y = 0), the two cases where
// the affine doubling returns infinity.
void dbl_lanes(const FpCtx& F, FpLaneBatch& batch, std::vector<Lane>& lanes,
               const LaneIds& ids) {
  for (const std::size_t i : ids) {
    Lane& l = lanes[i];
    batch.sqr(l.t[0], l.X);       // XX
    batch.sqr(l.t[1], l.Y);       // YY
    batch.sqr(l.t[2], l.Z);       // ZZ
    batch.mul(l.t[3], l.Y, l.Z);  // YZ
  }
  batch.flush();
  for (const std::size_t i : ids) {
    Lane& l = lanes[i];
    F.dbl(l.Z, l.t[3]);
    F.add(l.t[4], l.X, l.t[1]);
    batch.sqr(l.t[5], l.t[1]);  // YYYY
    batch.sqr(l.t[6], l.t[4]);  // (X + YY)²
    batch.sqr(l.t[7], l.t[2]);  // ZZ²
  }
  batch.flush();
  for (const std::size_t i : ids) {
    Lane& l = lanes[i];
    // S = 2((X + YY)² - XX - YYYY) = 4·X·YY in t6, M = 3·XX + ZZ² in t8.
    F.sub(l.t[6], l.t[6], l.t[0]);
    F.sub(l.t[6], l.t[6], l.t[5]);
    F.dbl(l.t[6], l.t[6]);
    F.dbl(l.t[8], l.t[0]);
    F.add(l.t[8], l.t[8], l.t[0]);
    F.add(l.t[8], l.t[8], l.t[7]);
    batch.sqr(l.t[9], l.t[8]);  // M²
  }
  batch.flush();
  for (const std::size_t i : ids) {
    Lane& l = lanes[i];
    F.dbl(l.t[0], l.t[6]);
    F.sub(l.X, l.t[9], l.t[0]);  // X₃ = M² - 2S
    F.sub(l.t[1], l.t[6], l.X);
    batch.mul(l.t[2], l.t[8], l.t[1]);  // M·(S - X₃)
  }
  batch.flush();
  for (const std::size_t i : ids) {
    Lane& l = lanes[i];
    F.dbl(l.t[5], l.t[5]);
    F.dbl(l.t[5], l.t[5]);
    F.dbl(l.t[5], l.t[5]);
    F.sub(l.Y, l.t[2], l.t[5]);  // Y₃ = M·(S - X₃) - 8·YYYY
  }
}

// R ← R + (px, ±py) on every listed lane (madd-2007-bl; `neg` adds -P).
// Each lane takes the affine ec_add's exceptional cases on its own: R at
// infinity becomes ±P, and once H = 0 shows R has ±P's x, the lane leaves
// the batch — it lands on infinity for R = -(±P), or doubles alone for
// R = ±P.
void add_lanes(const FpCtx& F, FpLaneBatch& batch, std::vector<Lane>& lanes,
               const LaneIds& ids, bool neg) {
  const auto qy = [neg](const Lane& l) -> const FpElem& {
    return neg ? l.ny : l.py;
  };
  LaneIds live;
  live.reserve(ids.size());
  for (const std::size_t i : ids) {
    Lane& l = lanes[i];
    if (F.is_zero(l.Z)) {
      l.X = l.px;
      l.Y = qy(l);
      l.Z = F.one();
      continue;
    }
    live.push_back(i);
    batch.sqr(l.t[0], l.Z);  // Z1Z1
  }
  batch.flush();
  for (const std::size_t i : live) {
    Lane& l = lanes[i];
    batch.mul(l.t[1], l.px, l.t[0]);  // U2
    batch.mul(l.t[2], l.Z, l.t[0]);   // Z³
  }
  batch.flush();
  for (const std::size_t i : live) {
    Lane& l = lanes[i];
    F.sub(l.t[3], l.t[1], l.X);          // H = U2 - X
    batch.mul(l.t[4], qy(l), l.t[2]);    // S2
    batch.sqr(l.t[5], l.t[3]);           // HH
  }
  batch.flush();
  LaneIds same;
  std::size_t kept = 0;
  for (const std::size_t i : live) {
    Lane& l = lanes[i];
    if (!F.is_zero(l.t[3])) {
      live[kept++] = i;
    } else if (F.equal(l.t[4], l.Y)) {
      same.push_back(i);  // R = ±P
    } else {
      l.Z = F.zero();  // R = -(±P)
    }
  }
  live.resize(kept);
  for (const std::size_t i : live) {
    Lane& l = lanes[i];
    F.dbl(l.t[6], l.t[5]);
    F.dbl(l.t[6], l.t[6]);  // I = 4·HH
    F.sub(l.t[7], l.t[4], l.Y);
    F.dbl(l.t[7], l.t[7]);  // r = 2(S2 - Y)
    F.add(l.t[8], l.Z, l.t[3]);
    batch.mul(l.t[9], l.t[3], l.t[6]);   // J = H·I
    batch.mul(l.t[10], l.X, l.t[6]);     // V = X·I
    batch.sqr(l.t[11], l.t[7]);          // r²
    batch.sqr(l.t[1], l.t[8]);           // (Z + H)²
  }
  batch.flush();
  for (const std::size_t i : live) {
    Lane& l = lanes[i];
    F.sub(l.X, l.t[11], l.t[9]);
    F.sub(l.X, l.X, l.t[10]);
    F.sub(l.X, l.X, l.t[10]);  // X₃ = r² - J - 2V
    F.sub(l.Z, l.t[1], l.t[0]);
    F.sub(l.Z, l.Z, l.t[5]);  // Z₃ = (Z + H)² - Z1Z1 - HH = 2·Z·H
    F.sub(l.t[2], l.t[10], l.X);
    batch.mul(l.t[3], l.t[7], l.t[2]);  // r·(V - X₃)
    batch.mul(l.t[4], l.Y, l.t[9]);     // Y·J
  }
  batch.flush();
  for (const std::size_t i : live) {
    Lane& l = lanes[i];
    F.dbl(l.t[4], l.t[4]);
    F.sub(l.Y, l.t[3], l.t[4]);  // Y₃ = r·(V - X₃) - 2·Y·J
  }
  if (!same.empty()) dbl_lanes(F, batch, lanes, same);
}

}  // namespace

std::vector<EcPoint> ec_mul_many(const std::vector<EcPoint>& points,
                                 const Bigint& k, const Bigint& p) {
  if (k.is_negative()) {
    throw std::invalid_argument("ec_mul: negative scalar");
  }
  std::vector<EcPoint> out(points.size(), EcPoint::at_infinity());
  if (k.is_zero()) return out;
  const std::shared_ptr<const FpCtx> ctx = fp_ctx(p);
  const FpCtx& F = *ctx;

  // Infinity inputs stay at infinity; every other point is a lane,
  // starting at R = P for the NAF's leading +1 digit.
  std::vector<Lane> lanes(points.size());
  LaneIds ids;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].infinity) continue;
    Lane& l = lanes[i];
    l.px = F.to_mont(points[i].x);
    l.py = F.to_mont(points[i].y);
    F.neg(l.ny, l.py);
    l.X = l.px;
    l.Y = l.py;
    l.Z = F.one();
    ids.push_back(i);
  }
  if (ids.empty()) return out;

  // NAF digit i of k is bit i+1 of 3k minus bit i+1 of k; the top digit
  // (i = bitlen(3k) - 2) is always +1.
  FpLaneBatch batch(F);
  batch.reserve(4 * ids.size());
  const Bigint k3 = k * Bigint(3);
  for (std::size_t i = k3.bit_length() - 2; i-- > 0;) {
    dbl_lanes(F, batch, lanes, ids);
    const bool hb = k3.bit(i + 1);
    const bool kb = k.bit(i + 1);
    if (hb != kb) add_lanes(F, batch, lanes, ids, /*neg=*/kb);
  }

  // Back to affine, x = X/Z² and y = Y/Z³, with one fp_inv for every
  // finite lane: prefix products of Z in t0, then peel the inverse.
  LaneIds fin;
  for (const std::size_t i : ids) {
    if (!F.is_zero(lanes[i].Z)) fin.push_back(i);
  }
  if (fin.empty()) return out;
  lanes[fin[0]].t[0] = lanes[fin[0]].Z;
  for (std::size_t j = 1; j < fin.size(); ++j) {
    F.mul(lanes[fin[j]].t[0], lanes[fin[j - 1]].t[0], lanes[fin[j]].Z);
  }
  FpElem inv = F.to_mont(fp_inv(F.from_mont(lanes[fin.back()].t[0]), p));
  for (std::size_t j = fin.size(); j-- > 1;) {
    Lane& l = lanes[fin[j]];
    F.mul(l.t[1], inv, lanes[fin[j - 1]].t[0]);  // 1/Z
    F.mul(inv, inv, l.Z);
  }
  lanes[fin[0]].t[1] = inv;
  for (const std::size_t i : fin) batch.sqr(lanes[i].t[2], lanes[i].t[1]);
  batch.flush();
  for (const std::size_t i : fin) {
    Lane& l = lanes[i];
    batch.mul(l.t[3], l.t[2], l.t[1]);  // 1/Z³
    batch.mul(l.t[4], l.X, l.t[2]);
  }
  batch.flush();
  for (const std::size_t i : fin) {
    batch.mul(lanes[i].t[5], lanes[i].Y, lanes[i].t[3]);
  }
  batch.flush();
  for (const std::size_t i : fin) {
    out[i] = EcPoint{F.from_mont(lanes[i].t[4]), F.from_mont(lanes[i].t[5]),
                     false};
  }
  return out;
}

EcPoint ec_mul(const EcPoint& a, const Bigint& k, const Bigint& p) {
  return ec_mul_many({a}, k, p)[0];
}

EcPoint ec_random_point(SecureRandom& rng, const Bigint& p) {
  for (;;) {
    const Bigint x = Bigint::random_below(rng, p);
    const Bigint rhs = fp_add(fp_mul(fp_mul(x, x, p), x, p), x, p);
    const auto y = fp_sqrt(rhs, p);
    if (!y.has_value() || y->is_zero()) continue;
    return EcPoint{x, rng.uniform(2) ? *y : fp_neg(*y, p), false};
  }
}

Bytes ec_serialize(const EcPoint& pt, const Bigint& p) {
  const std::size_t width = (p.bit_length() + 7) / 8;
  Bytes out = concat(pt.x.to_bytes_be(width), pt.y.to_bytes_be(width));
  out.push_back(pt.infinity ? 1 : 0);
  return out;
}

EcPoint ec_deserialize(const Bytes& data, const Bigint& p) {
  const std::size_t width = (p.bit_length() + 7) / 8;
  if (data.size() != 2 * width + 1 || data.back() > 1) {
    throw std::invalid_argument("ec_deserialize: malformed encoding");
  }
  EcPoint pt;
  pt.x = Bigint::from_bytes_be(
      Bytes(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(width)));
  pt.y = Bigint::from_bytes_be(
      Bytes(data.begin() + static_cast<std::ptrdiff_t>(width),
            data.end() - 1));
  pt.infinity = data.back() == 1;
  // Infinity has exactly one encoding, all-zero coordinates: accepting
  // junk under the flag would make every point-carrying message
  // malleable.
  if (pt.infinity && (!pt.x.is_zero() || !pt.y.is_zero())) {
    throw std::invalid_argument("ec_deserialize: non-canonical infinity");
  }
  if (!ec_on_curve(pt, p)) {
    throw std::invalid_argument("ec_deserialize: point not on curve");
  }
  return pt;
}

}  // namespace ppms
