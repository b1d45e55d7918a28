// The supersingular curve E: y² = x³ + x over F_p (p ≡ 3 mod 4).
//
// #E(F_p) = p + 1 and the embedding degree is 2, which is the "Type A"
// setting of the PBC/jPBC libraries the paper's experiments used. Points
// cross the API in affine coordinates plus an explicit infinity flag.
//
// Scalar multiplication runs on the flat field core (bigint/limbs.h): a
// signed-binary (NAF) double-and-add in Jacobian coordinates with one
// field inversion at the end, lane-batched across the points of an
// ec_mul_many call. The textbook affine double-and-add (one inversion per
// step) stays as ec_mul_affine, the oracle tests/pairing/g1_test.cpp pins
// the flat ladder against. Addition, negation and serialization stay
// affine: each is one step, where an inversion is the whole cost anyway.
#pragma once

#include <optional>
#include <vector>

#include "pairing/fp.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace ppms {

struct EcPoint {
  Bigint x, y;
  bool infinity = false;

  static EcPoint at_infinity() { return EcPoint{Bigint(0), Bigint(0), true}; }

  friend bool operator==(const EcPoint&, const EcPoint&) = default;
};

/// True when P is infinity, or has coordinates in [0, p) satisfying
/// y² = x³ + x. Runs on fp_ctx(p): for a finite point with in-range
/// coordinates p must be odd and at most 2048 bits (std::invalid_argument
/// otherwise).
bool ec_on_curve(const EcPoint& pt, const Bigint& p);

/// Point addition (handles doubling, inverses and infinity).
EcPoint ec_add(const EcPoint& a, const EcPoint& b, const Bigint& p);

EcPoint ec_neg(const EcPoint& a, const Bigint& p);

/// Scalar multiplication k·P for any k >= 0 (std::invalid_argument for
/// k < 0; k is not reduced, so k ≥ r, the cofactor h and points outside
/// the order-r subgroup all give the exact group result). Runs on
/// fp_ctx(p): p must be odd and at most 2048 bits. Bit-identical to
/// ec_mul_affine; it is ec_mul_many of one point.
EcPoint ec_mul(const EcPoint& a, const Bigint& k, const Bigint& p);

/// k·P_i for every point, one NAF ladder in lockstep: each formula
/// stage's independent field products across all points go out as one
/// lane batch, and every finite result shares one field inversion
/// (Montgomery's trick). Each lane handles its own exceptional cases
/// (infinity, order-2 points, R = ±P inside an addition), so out[i] is
/// bit-identical to ec_mul(points[i], k, p) whatever the other lanes hold.
std::vector<EcPoint> ec_mul_many(const std::vector<EcPoint>& points,
                                 const Bigint& k, const Bigint& p);

/// Textbook affine double-and-add over ec_add, one inversion per step:
/// the test oracle for ec_mul and ec_mul_many. Not for production paths.
EcPoint ec_mul_affine(const EcPoint& a, const Bigint& k, const Bigint& p);

/// Uniform-ish point: random x until x³ + x is square, then a random
/// choice of root. Never returns infinity.
EcPoint ec_random_point(SecureRandom& rng, const Bigint& p);

/// Fixed-width serialization (x || y || infinity flag). ec_deserialize
/// accepts only canonical encodings of on-curve points: the flag is 0 or
/// 1, and infinity (flag 1) carries x = y = 0 (std::invalid_argument
/// otherwise).
Bytes ec_serialize(const EcPoint& pt, const Bigint& p);
EcPoint ec_deserialize(const Bytes& data, const Bigint& p);

}  // namespace ppms
