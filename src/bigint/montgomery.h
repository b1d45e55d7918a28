// Fixed-base exponentiation over a shared FpCtx (bigint/limbs.h).
//
// FpCtx is the library's one Montgomery implementation; this header adds
// the digit-table method for the case where one base under one modulus is
// raised to many exponents.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/limbs.h"

namespace ppms {

/// Fixed-base exponentiation with a radix-16 digit table: base^(d·16^i) is
/// precomputed in Montgomery form for every digit position, so each later
/// pow() costs one Montgomery product per nonzero exponent digit — no
/// squarings at all. Worth building whenever one base under one modulus is
/// raised to many different exponents (a tower generator across proof
/// rounds, a verification base across a session); the table pays for
/// itself after a handful of calls.
class FixedBasePow {
 public:
  /// Table covers exponents up to `max_exp_bits` bits; larger exponents
  /// fall back to plain ctx->pow. `ctx` is shared (typically from fp_ctx)
  /// and kept alive by this object; null throws std::invalid_argument.
  FixedBasePow(std::shared_ptr<const FpCtx> ctx, const Bigint& base,
               std::size_t max_exp_bits);

  /// base^exp mod m. exp >= 0 (throws std::invalid_argument otherwise).
  Bigint pow(const Bigint& exp) const;

  const Bigint& base() const { return base_; }

 private:
  std::shared_ptr<const FpCtx> ctx_;
  Bigint base_;
  // table_[i][d-1] = base^(d · 16^i) in Montgomery form, d in 1..15.
  std::vector<std::vector<FpElem>> table_;
};

}  // namespace ppms
