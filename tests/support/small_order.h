// Points of small order on the Type-A curve y² = x³ + x, for tests that
// push a cofactor component into a point of the order-r subgroup G. Since
// 4 | h and r ∤ h, adding one of these to a point of G leaves the curve
// group's r-part alone and takes the point out of G.
#pragma once

#include <stdexcept>
#include <vector>

#include "pairing/curve.h"
#include "pairing/fp.h"

namespace ppms::testing {

/// The point (0, 0) of order 2.
inline EcPoint order2_point() { return EcPoint{Bigint(0), Bigint(0), false}; }

/// A point of order 4, whose double is (0, 0): x² = 1, so x = ±1, and
/// exactly one of ±2 = x³ + x is a square because -1 is not (p ≡ 3 mod 4).
inline EcPoint order4_point(const Bigint& p) {
  for (const Bigint& x : {Bigint(1), p - Bigint(1)}) {
    const Bigint rhs = fp_add(fp_mul(fp_mul(x, x, p), x, p), x, p);
    if (const auto y = fp_sqrt(rhs, p)) return EcPoint{x, *y, false};
  }
  throw std::logic_error("order4_point: p is not 3 mod 4");
}

/// Both small-order components the tests add: order 2 and order 4.
inline std::vector<EcPoint> small_order_points(const Bigint& p) {
  return {order2_point(), order4_point(p)};
}

}  // namespace ppms::testing
