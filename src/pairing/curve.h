// The supersingular curve E: y² = x³ + x over F_p (p ≡ 3 mod 4).
//
// #E(F_p) = p + 1 and the embedding degree is 2, which is the "Type A"
// setting of the PBC/jPBC libraries the paper's experiments used. Points
// use affine coordinates plus an explicit infinity flag; the group sizes
// here make affine arithmetic (one field inversion per operation) entirely
// adequate.
#pragma once

#include <optional>

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

/// True when P satisfies y² = x³ + x (or is infinity).
bool ec_on_curve(const EcPoint& pt, const Bigint& p);

/// Point addition (handles doubling, inverses and infinity).
EcPoint ec_add(const EcPoint& a, const EcPoint& b, const Bigint& p);

EcPoint ec_neg(const EcPoint& a, const Bigint& p);

/// Scalar multiplication k·P for k >= 0 (double-and-add).
EcPoint ec_mul(const EcPoint& a, const Bigint& k, const Bigint& p);

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
