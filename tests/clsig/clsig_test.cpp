#include "clsig/clsig.h"

#include <gtest/gtest.h>

#include "support/small_order.h"

namespace ppms {
namespace {

struct Fixture {
  TypeAParams params;
  ClKeyPair kp;
};

const Fixture& fx() {
  static const Fixture f = [] {
    SecureRandom rng(99);
    Fixture out{typea_generate(rng, 48, 128), {}};
    out.kp = cl_keygen(out.params, rng);
    return out;
  }();
  return f;
}

TEST(ClSigTest, SignVerifyRoundTrip) {
  SecureRandom rng(1);
  const Bigint m = Bigint::random_below(rng, fx().params.r);
  const ClSignature sig = cl_sign(fx().params, fx().kp.sk, m, rng);
  EXPECT_TRUE(cl_verify(fx().params, fx().kp.pk, m, sig));
}

TEST(ClSigTest, WrongMessageRejected) {
  SecureRandom rng(2);
  const Bigint m(12345);
  const ClSignature sig = cl_sign(fx().params, fx().kp.sk, m, rng);
  EXPECT_FALSE(cl_verify(fx().params, fx().kp.pk, Bigint(12346), sig));
}

TEST(ClSigTest, WrongKeyRejected) {
  SecureRandom rng(3);
  const ClKeyPair other = cl_keygen(fx().params, rng);
  const Bigint m(777);
  const ClSignature sig = cl_sign(fx().params, fx().kp.sk, m, rng);
  EXPECT_FALSE(cl_verify(fx().params, other.pk, m, sig));
}

TEST(ClSigTest, TamperedComponentsRejected) {
  SecureRandom rng(4);
  const Bigint m(42);
  const ClSignature sig = cl_sign(fx().params, fx().kp.sk, m, rng);
  ClSignature bad = sig;
  bad.b = ec_mul(bad.b, Bigint(2), fx().params.p);
  EXPECT_FALSE(cl_verify(fx().params, fx().kp.pk, m, bad));
  bad = sig;
  bad.c = ec_add(bad.c, fx().params.g, fx().params.p);
  EXPECT_FALSE(cl_verify(fx().params, fx().kp.pk, m, bad));
  bad = sig;
  bad.a = EcPoint::at_infinity();
  EXPECT_FALSE(cl_verify(fx().params, fx().kp.pk, m, bad));
}

TEST(ClSigTest, MessageReducedModR) {
  SecureRandom rng(5);
  const Bigint m(5);
  const ClSignature sig = cl_sign(fx().params, fx().kp.sk, m, rng);
  EXPECT_TRUE(cl_verify(fx().params, fx().kp.pk, m + fx().params.r, sig));
}

TEST(ClSigTest, SignaturesAreRandomized) {
  SecureRandom rng(6);
  const Bigint m(9);
  const ClSignature s1 = cl_sign(fx().params, fx().kp.sk, m, rng);
  const ClSignature s2 = cl_sign(fx().params, fx().kp.sk, m, rng);
  EXPECT_FALSE(s1.a == s2.a);
}

TEST(ClSigTest, RandomizationPreservesValidityAndUnlinkability) {
  SecureRandom rng(7);
  const Bigint m(31337);
  const ClSignature sig = cl_sign(fx().params, fx().kp.sk, m, rng);
  const ClSignature rand_sig = cl_randomize(fx().params, sig, rng);
  EXPECT_TRUE(cl_verify(fx().params, fx().kp.pk, m, rand_sig));
  EXPECT_FALSE(rand_sig.a == sig.a);
  EXPECT_FALSE(rand_sig.c == sig.c);
}

TEST(ClSigTest, CommittedSigningNeverSeesMessage) {
  // Blind issuance: signer receives only M = g^m.
  SecureRandom rng(8);
  const Bigint m = Bigint::random_below(rng, fx().params.r);
  const EcPoint M = ec_mul(fx().params.g, m, fx().params.p);
  const ClSignature sig = cl_sign_committed(fx().params, fx().kp.sk, M, rng);
  EXPECT_TRUE(cl_verify(fx().params, fx().kp.pk, m, sig));
  EXPECT_FALSE(cl_verify(fx().params, fx().kp.pk, m + Bigint(1), sig));
}

TEST(ClSigTest, CommittedSigningRejectsBadPoint) {
  SecureRandom rng(9);
  EcPoint bad = fx().params.g;
  bad.x = fp_add(bad.x, Bigint(1), fx().params.p);
  EXPECT_THROW(cl_sign_committed(fx().params, fx().kp.sk, bad, rng),
               std::invalid_argument);
}

TEST(ClSigTest, SerializationRoundTrips) {
  SecureRandom rng(10);
  const Bigint m(4096);
  const ClSignature sig = cl_sign(fx().params, fx().kp.sk, m, rng);
  const ClSignature copy =
      ClSignature::deserialize(fx().params, sig.serialize(fx().params));
  EXPECT_TRUE(cl_verify(fx().params, fx().kp.pk, m, copy));

  const ClPublicKey pk_copy = ClPublicKey::deserialize(
      fx().params, fx().kp.pk.serialize(fx().params));
  EXPECT_TRUE(cl_verify(fx().params, pk_copy, m, sig));
}

TEST(ClSigBatchTest, BatchScalarsNeverVanishModR) {
  // δ ≡ 0 mod r would drop its member from the batched product, so the
  // scalars are drawn from [1, min(r, 2^64)): below a small r they cover
  // every non-zero residue and never hit zero; above 2^64 they stay
  // 64-bit.
  SecureRandom rng(19);
  const Bigint small(5);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 400; ++i) {
    const Bigint d = batch_scalar(rng, small);
    ASSERT_FALSE(d.mod(small).is_zero());
    ASSERT_TRUE(d < small);
    ++seen[d.to_u64()];
  }
  for (int v = 1; v < 5; ++v) EXPECT_GT(seen[v], 0) << v;
  const Bigint& r48 = fx().params.r;  // below 2^64, like every DEC market
  const Bigint wide = Bigint::two_pow(64) + Bigint(13);
  for (int i = 0; i < 200; ++i) {
    const Bigint d = batch_scalar(rng, r48);
    ASSERT_TRUE(!d.is_zero() && d < r48);
    const Bigint w = batch_scalar(rng, wide);
    ASSERT_TRUE(!w.is_zero() && w < Bigint::two_pow(64));
  }
}

TEST(ClSigBatchTest, EmptyBatchVerifies) {
  SecureRandom rng(20);
  EXPECT_TRUE(cl_verify_batch(fx().params, fx().kp.pk, {}, rng).empty());
}

TEST(ClSigBatchTest, AllValidBatchAccepted) {
  SecureRandom rng(21);
  std::vector<ClBatchItem> items;
  for (int i = 0; i < 64; ++i) {
    const Bigint m = Bigint::random_below(rng, fx().params.r);
    items.push_back({m, cl_sign(fx().params, fx().kp.sk, m, rng)});
  }
  const std::vector<bool> ok =
      cl_verify_batch(fx().params, fx().kp.pk, items, rng);
  ASSERT_EQ(ok.size(), items.size());
  for (std::size_t i = 0; i < ok.size(); ++i) {
    EXPECT_TRUE(ok[i]) << "item " << i;
  }
}

TEST(ClSigBatchTest, SingleForgeryInLargeBatchIsSingledOut) {
  // One forged signature among 64 must fail the folded product check, and
  // the per-signature fallback must then blame exactly the forged index.
  SecureRandom rng(22);
  std::vector<ClBatchItem> items;
  for (int i = 0; i < 64; ++i) {
    const Bigint m = Bigint::random_below(rng, fx().params.r);
    items.push_back({m, cl_sign(fx().params, fx().kp.sk, m, rng)});
  }
  const std::size_t forged = 17;
  items[forged].sig.c =
      ec_add(items[forged].sig.c, fx().params.g, fx().params.p);
  const std::vector<bool> ok =
      cl_verify_batch(fx().params, fx().kp.pk, items, rng);
  ASSERT_EQ(ok.size(), items.size());
  for (std::size_t i = 0; i < ok.size(); ++i) {
    EXPECT_EQ(ok[i], i != forged) << "item " << i;
  }
}

TEST(ClSigBatchTest, WrongMessageCaughtInSmallBatch) {
  SecureRandom rng(23);
  std::vector<ClBatchItem> items;
  for (int i = 0; i < 4; ++i) {
    const Bigint m = Bigint::random_below(rng, fx().params.r);
    items.push_back({m, cl_sign(fx().params, fx().kp.sk, m, rng)});
  }
  items[2].m = items[2].m + Bigint(1);
  const std::vector<bool> ok =
      cl_verify_batch(fx().params, fx().kp.pk, items, rng);
  ASSERT_EQ(ok.size(), 4u);
  EXPECT_TRUE(ok[0]);
  EXPECT_TRUE(ok[1]);
  EXPECT_FALSE(ok[2]);
  EXPECT_TRUE(ok[3]);
}

TEST(ClSigBatchTest, MalformedMemberFallsBackToExactVerification) {
  // A structurally broken signature (a = ∞) cannot even enter the folded
  // product; the batch must still return exact per-item verdicts.
  SecureRandom rng(24);
  std::vector<ClBatchItem> items;
  for (int i = 0; i < 3; ++i) {
    const Bigint m = Bigint::random_below(rng, fx().params.r);
    items.push_back({m, cl_sign(fx().params, fx().kp.sk, m, rng)});
  }
  items[1].sig.a = EcPoint::at_infinity();
  const std::vector<bool> ok =
      cl_verify_batch(fx().params, fx().kp.pk, items, rng);
  ASSERT_EQ(ok.size(), 3u);
  EXPECT_TRUE(ok[0]);
  EXPECT_FALSE(ok[1]);
  EXPECT_TRUE(ok[2]);
}

TEST(ClSigBatchTest, BatchAgreesWithPerSignatureVerdicts) {
  SecureRandom rng(25);
  std::vector<ClBatchItem> items;
  for (int i = 0; i < 8; ++i) {
    const Bigint m = Bigint::random_below(rng, fx().params.r);
    items.push_back({m, cl_sign(fx().params, fx().kp.sk, m, rng)});
  }
  items[0].sig.b = ec_mul(items[0].sig.b, Bigint(3), fx().params.p);
  items[5].m = items[5].m + Bigint(7);
  const std::vector<bool> batch =
      cl_verify_batch(fx().params, fx().kp.pk, items, rng);
  ASSERT_EQ(batch.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(batch[i],
              cl_verify(fx().params, fx().kp.pk, items[i].m, items[i].sig))
        << "item " << i;
  }
}

// A valid signature with a small-order component added to a, b or c lies
// on the curve but outside G. Both verifiers must reject it, and the batch
// must flag every member exactly as cl_verify does.
TEST(ClSigSubgroupTest, CofactorComponentRejectedSingleAndBatch) {
  const TypeAParams& prm = fx().params;
  SecureRandom rng(30);
  for (const EcPoint& t : testing::small_order_points(prm.p)) {
    for (int slot = 0; slot < 3; ++slot) {
      std::vector<ClBatchItem> items;
      for (int i = 0; i < 3; ++i) {
        const Bigint m = Bigint::random_below(rng, prm.r);
        items.push_back({m, cl_sign(prm, fx().kp.sk, m, rng)});
      }
      ClSignature& bad = items[1].sig;
      EcPoint& pt = slot == 0 ? bad.a : slot == 1 ? bad.b : bad.c;
      pt = ec_add(pt, t, prm.p);
      ASSERT_TRUE(ec_on_curve(pt, prm.p));
      EXPECT_FALSE(cl_verify(prm, fx().kp.pk, items[1].m, bad))
          << "slot " << slot;
      const std::vector<bool> flags =
          cl_verify_batch(prm, fx().kp.pk, items, rng);
      ASSERT_EQ(flags.size(), items.size());
      for (std::size_t j = 0; j < items.size(); ++j) {
        EXPECT_EQ(flags[j],
                  cl_verify(prm, fx().kp.pk, items[j].m, items[j].sig))
            << "slot " << slot << " member " << j;
      }
      EXPECT_FALSE(flags[1]);
      EXPECT_TRUE(flags[0]);
    }
  }
}

TEST(ClSigSubgroupTest, KeyWithCofactorComponentRejected) {
  const TypeAParams& prm = fx().params;
  SecureRandom rng(31);
  const Bigint m = Bigint::random_below(rng, prm.r);
  const ClSignature sig = cl_sign(prm, fx().kp.sk, m, rng);
  for (const EcPoint& t : testing::small_order_points(prm.p)) {
    for (const bool onX : {true, false}) {
      ClPublicKey pk = fx().kp.pk;
      EcPoint& pt = onX ? pk.X : pk.Y;
      pt = ec_add(pt, t, prm.p);
      EXPECT_THROW(ClPublicKey::deserialize(prm, pk.serialize(prm)),
                   std::invalid_argument);
      EXPECT_FALSE(cl_verify(prm, pk, m, sig));
      EXPECT_EQ(cl_verify_batch(prm, pk, {{m, sig}}, rng),
                std::vector<bool>{false});
    }
  }
  EXPECT_EQ(ClPublicKey::deserialize(prm, fx().kp.pk.serialize(prm)).X,
            fx().kp.pk.X);
}

}  // namespace
}  // namespace ppms
