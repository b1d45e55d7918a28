// Reference Tate pairing on the Type-A curve, via Miller's algorithm.
//
// `tate_pairing_affine(params, P, Q)` computes the symmetric pairing
// ê(P, Q) = f_{r,P}(φ(Q))^{(p²-1)/r} with the distortion map
// φ(x, y) = (-x, i·y). Vertical lines evaluate into F_p and are killed by
// the (p-1) factor of the final exponentiation, so the Miller loop skips
// them (standard denominator elimination for even embedding degree).
//
// This is the textbook oracle: every production pairing goes through
// PairingEngine (pairing/pipeline.h), whose projective loop on the
// flat-limb core the tests pin to this function bit for bit.
#pragma once

#include "pairing/typea.h"

namespace ppms {

/// ê(P, Q) in GT ⊂ F_p², with the affine Miller loop (one field inversion
/// per doubling/addition step). Both inputs must lie on the curve
/// (std::invalid_argument otherwise); points at infinity yield 1 (the
/// identity of GT).
Fp2 tate_pairing_affine(const TypeAParams& params, const EcPoint& P,
                        const EcPoint& Q);

}  // namespace ppms
