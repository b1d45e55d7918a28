#include "bigint/montgomery.h"

#include <stdexcept>

namespace ppms {

FixedBasePow::FixedBasePow(std::shared_ptr<const FpCtx> ctx,
                           const Bigint& base, std::size_t max_exp_bits)
    : ctx_(std::move(ctx)), base_(base) {
  if (!ctx_) {
    throw std::invalid_argument("FixedBasePow: null context");
  }
  const FpCtx& F = *ctx_;
  const std::size_t digits = (max_exp_bits + 3) / 4;
  table_.resize(digits);
  // cur = base^(16^i) in Montgomery form, advanced one digit per row via
  // base^(15·16^i) · base^(16^i) — one product instead of four squarings.
  FpElem cur = F.to_mont(base);
  for (std::size_t i = 0; i < digits; ++i) {
    auto& row = table_[i];
    row.resize(15);
    row[0] = cur;
    for (std::size_t d = 1; d < 15; ++d) F.mul(row[d], row[d - 1], cur);
    F.mul(cur, row[14], cur);
  }
}

Bigint FixedBasePow::pow(const Bigint& exp) const {
  if (exp.is_negative()) {
    throw std::invalid_argument("FixedBasePow::pow: negative exponent");
  }
  const std::size_t bits = exp.bit_length();
  if (bits > 4 * table_.size()) return ctx_->pow(base_, exp);
  const FpCtx& F = *ctx_;
  // Gather the nonzero-digit entries and fold them pairwise, each tree
  // level one lane-batched mul_batch call. Montgomery products of reduced
  // operands are canonical, so the balanced tree returns the same limbs as
  // a sequential product chain.
  std::vector<const FpElem*> items;
  items.reserve((bits + 3) / 4);
  for (std::size_t i = 0; i * 4 < bits; ++i) {
    const std::uint32_t d = (exp.bit(4 * i) ? 1u : 0u) |
                            (exp.bit(4 * i + 1) ? 2u : 0u) |
                            (exp.bit(4 * i + 2) ? 4u : 0u) |
                            (exp.bit(4 * i + 3) ? 8u : 0u);
    if (d) items.push_back(&table_[i][d - 1]);
  }
  if (items.empty()) return Bigint(1);
  std::vector<FpElem> buf(items.size());  // stable fold scratch
  std::vector<FpCtx::MulJob> jobs;
  std::size_t used = 0;
  while (items.size() > 1) {
    jobs.clear();
    std::size_t out = 0;
    std::size_t i = 0;
    for (; i + 1 < items.size(); i += 2) {
      FpElem& dst = buf[used++];
      jobs.push_back(FpCtx::MulJob{&dst, items[i], items[i + 1]});
      items[out++] = &dst;
    }
    if (i < items.size()) items[out++] = items[i];
    items.resize(out);
    F.mul_batch(jobs.data(), jobs.size());
  }
  return F.from_mont(*items[0]);
}

}  // namespace ppms
