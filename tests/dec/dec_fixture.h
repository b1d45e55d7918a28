// Shared DEC test fixture: one L=3 parameter set (table chain) reused by
// every suite in this binary — setup is the expensive part.
#pragma once

#include "dec/bank.h"
#include "dec/wallet.h"

namespace ppms::testing {

inline const DecParams& dec_params() {
  static const DecParams params = [] {
    SecureRandom rng(2024);
    return dec_setup(rng, 3, ChainSource::kTable, 128);
  }();
  return params;
}

/// A bank over the shared params (fresh keys per call site that wants one).
inline DecBank make_bank(std::uint64_t seed) {
  SecureRandom rng(seed);
  return DecBank(dec_params(), rng);
}

/// A wallet that has completed the withdraw protocol against `bank`.
inline DecWallet make_funded_wallet(DecBank& bank, std::uint64_t seed) {
  SecureRandom rng(seed);
  DecWallet wallet(bank.params(), rng);
  const Bytes ctx = bytes_of("withdraw");
  const auto cert =
      bank.withdraw(wallet.commitment(),
                    wallet.prove_commitment(rng, ctx), ctx, rng);
  if (!cert) throw std::runtime_error("fixture: withdraw failed");
  wallet.set_certificate(bank.public_key(), *cert);
  return wallet;
}

/// verify_batch's argument: the address of every spend, in order.
inline std::vector<const DepositSpend*> members_of(
    const std::vector<DepositSpend>& spends) {
  std::vector<const DepositSpend*> out;
  for (const DepositSpend& spend : spends) out.push_back(&spend);
  return out;
}

}  // namespace ppms::testing
