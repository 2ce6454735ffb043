// core::VerifyContext: shared per-key verification state plus the optional
// world-level verdict cache. The load-bearing property is PARITY — a
// caching context must return exactly the verdicts of a cache-off context
// (and of the stateless crypto::rsa_verify underneath), for any interleaving
// of threads, so the scenario fingerprint cannot observe the cache.
#include "core/verify_context.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/keys.h"
#include "obs/metrics.h"

namespace pvr::core {
namespace {

class VerifyContextTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    crypto::Drbg rng(515, "verify-context-test");
    keys_ = new AsKeyPairs(generate_keys({10, 20, 30}, rng, 512));
  }
  static void TearDownTestSuite() {
    delete keys_;
    keys_ = nullptr;
  }
  static const AsKeyPairs& keys() { return *keys_; }

  static SignedMessage signed_by(bgp::AsNumber asn,
                                 std::vector<std::uint8_t> payload) {
    return sign_message(asn, keys().private_keys.at(asn).priv,
                        std::move(payload));
  }

  // `message` with the last signature byte flipped: the same signing input
  // under a different signature that still passes the structural screen
  // (s < n), so only a cache keyed on the signature bytes too can tell the
  // two apart.
  static SignedMessage with_flipped_last_byte(SignedMessage message) {
    message.signature.back() ^= 0x01;
    return message;
  }

 private:
  static AsKeyPairs* keys_;
};

AsKeyPairs* VerifyContextTest::keys_ = nullptr;

TEST_F(VerifyContextTest, VerdictsMatchVerifyMessageWithAndWithoutCache) {
  const VerifyContext plain(&keys().directory, /*cache_verdicts=*/false);
  const VerifyContext caching(&keys().directory, /*cache_verdicts=*/true);

  std::vector<SignedMessage> messages;
  messages.push_back(signed_by(10, {1, 2, 3}));
  messages.push_back(with_flipped_last_byte(messages.back()));
  messages.push_back(signed_by(20, {4, 5}));
  messages.push_back(signed_by(30, {}));
  SignedMessage tampered = signed_by(10, {9, 9});
  tampered.payload.push_back(7);
  messages.push_back(tampered);
  SignedMessage reattributed = signed_by(20, {6});
  reattributed.signer = 30;
  messages.push_back(reattributed);
  SignedMessage unknown = signed_by(10, {1});
  unknown.signer = 99;  // no key in the directory
  messages.push_back(unknown);
  SignedMessage truncated = signed_by(30, {2});
  truncated.signature.pop_back();  // structurally invalid
  messages.push_back(truncated);

  // Two passes so the caching context answers the second from the cache.
  for (int pass = 0; pass < 2; ++pass) {
    for (const SignedMessage& message : messages) {
      const bool expected = verify_message(keys().directory, message);
      EXPECT_EQ(plain.verify(message), expected) << "pass " << pass;
      EXPECT_EQ(caching.verify(message), expected) << "pass " << pass;
    }
  }
  EXPECT_FALSE(verify_message(keys().directory, messages[1]));
  EXPECT_EQ(plain.cached_verdicts(), 0u);
  // Valid, flipped and tampered/reattributed signatures are cached; the
  // unknown signer and the structurally invalid one never reach the cache.
  EXPECT_EQ(caching.cached_verdicts(), 6u);
}

TEST_F(VerifyContextTest, CacheHitSkipsExponentiationButCountsHit) {
#if !PVR_OBS_ENABLED
  GTEST_SKIP() << "counters compiled out";
#else
  const obs::HotMetrics& hot = obs::MetricsRegistry::global().hot;
  const VerifyContext caching(&keys().directory, /*cache_verdicts=*/true);
  const SignedMessage message = signed_by(10, {42});

  const std::uint64_t verifies_before = hot.crypto_rsa_verifies.value();
  ASSERT_TRUE(caching.verify(message));
  EXPECT_EQ(hot.crypto_rsa_verifies.value(), verifies_before + 1);

  const std::uint64_t hits_before = hot.crypto_world_cache_hits.value();
  ASSERT_TRUE(caching.verify(message));
  EXPECT_EQ(hot.crypto_rsa_verifies.value(), verifies_before + 1);  // no new
  EXPECT_EQ(hot.crypto_world_cache_hits.value(), hits_before + 1);
#endif
}

// The kSim-deterministic hash accounting must not depend on hit/miss: a
// cache hit still screens, EMSA-encodes, and digests the pair, eliding
// only the exponentiation. Otherwise WHICH worker verified first would
// leak into crypto.bytes_hashed and break the sim fingerprint.
TEST_F(VerifyContextTest, HashWorkIsIdenticalOnHitAndMiss) {
#if !PVR_OBS_ENABLED
  GTEST_SKIP() << "counters compiled out";
#else
  const obs::HotMetrics& hot = obs::MetricsRegistry::global().hot;
  const VerifyContext caching(&keys().directory, /*cache_verdicts=*/true);
  const SignedMessage message = signed_by(20, {7, 7, 7});

  ASSERT_TRUE(caching.verify(message));  // prime: miss
  const std::uint64_t hashed_before_miss = hot.crypto_bytes_hashed.value();
  const VerifyContext fresh(&keys().directory, /*cache_verdicts=*/true);
  ASSERT_TRUE(fresh.verify(message));  // miss on a fresh context
  const std::uint64_t miss_delta =
      hot.crypto_bytes_hashed.value() - hashed_before_miss;

  const std::uint64_t hashed_before_hit = hot.crypto_bytes_hashed.value();
  ASSERT_TRUE(caching.verify(message));  // hit
  const std::uint64_t hit_delta =
      hot.crypto_bytes_hashed.value() - hashed_before_hit;
  EXPECT_EQ(hit_delta, miss_delta);
#endif
}

TEST_F(VerifyContextTest, VerifyKeyIsStableAndNullForUnknownSigners) {
  const VerifyContext ctx(&keys().directory, /*cache_verdicts=*/false);
  const crypto::RsaVerifyKey* key = ctx.verify_key(10);
  ASSERT_NE(key, nullptr);
  EXPECT_EQ(ctx.verify_key(10), key);  // lazily built once, stable pointer
  EXPECT_EQ(key->key(), *keys().directory.find(10));
  EXPECT_EQ(ctx.verify_key(99), nullptr);
  EXPECT_EQ(ctx.verify_key(99), nullptr);  // unknowns are not negative-cached
}

// Many threads hammering one caching context: same verdicts as the
// stateless path, no torn state under TSan.
TEST_F(VerifyContextTest, ConcurrentVerifyIsConsistent) {
  const VerifyContext caching(&keys().directory, /*cache_verdicts=*/true);
  std::vector<SignedMessage> messages;
  for (std::uint8_t i = 0; i < 16; ++i) {
    messages.push_back(signed_by(i % 2 == 0 ? 10 : 20, {i}));
  }
  messages[3].payload[0] ^= 1;  // one forgery
  // Same signing input as messages[0], different signature.
  messages.insert(messages.begin() + 1, with_flipped_last_byte(messages[0]));
  std::vector<bool> expected;
  for (const SignedMessage& message : messages) {
    expected.push_back(verify_message(keys().directory, message));
  }

  std::vector<std::thread> threads;
  std::vector<int> failures(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        for (std::size_t i = 0; i < messages.size(); ++i) {
          if (caching.verify(messages[i]) != expected[i]) failures[t]++;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const int count : failures) EXPECT_EQ(count, 0);
  EXPECT_EQ(caching.cached_verdicts(), messages.size());
}

}  // namespace
}  // namespace pvr::core
