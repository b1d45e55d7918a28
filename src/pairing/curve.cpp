#include "pairing/curve.h"

#include <stdexcept>

namespace ppms {

bool ec_on_curve(const EcPoint& pt, const Bigint& p) {
  if (pt.infinity) return true;
  if (pt.x.is_negative() || pt.x >= p || pt.y.is_negative() || pt.y >= p) {
    return false;
  }
  const Bigint lhs = fp_mul(pt.y, pt.y, p);
  const Bigint x3 = fp_mul(fp_mul(pt.x, pt.x, p), pt.x, p);
  return lhs == fp_add(x3, pt.x, p);
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

EcPoint ec_mul(const EcPoint& a, const Bigint& k, const Bigint& p) {
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
