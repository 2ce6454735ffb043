#include "crypto/rsa.h"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

namespace pvr::crypto {
namespace {

// Key generation is the slow part; share one key pair across tests.
class RsaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Drbg rng(2024, "rsa-test-keygen");
    key_ = new RsaKeyPair(generate_rsa_keypair(1024, rng));
  }
  static void TearDownTestSuite() {
    delete key_;
    key_ = nullptr;
  }
  static const RsaKeyPair& key() { return *key_; }

 private:
  static RsaKeyPair* key_;
};

RsaKeyPair* RsaTest::key_ = nullptr;

TEST(RsaPrimality, KnownPrimesAccepted) {
  Drbg rng(1, "primality");
  EXPECT_TRUE(is_probable_prime(Bignum(2), rng));
  EXPECT_TRUE(is_probable_prime(Bignum(3), rng));
  EXPECT_TRUE(is_probable_prime(Bignum(65537), rng));
  EXPECT_TRUE(is_probable_prime(Bignum(1000003), rng));
  // 2^61 - 1 is a Mersenne prime.
  EXPECT_TRUE(is_probable_prime(Bignum((1ULL << 61) - 1), rng));
}

TEST(RsaPrimality, KnownCompositesRejected) {
  Drbg rng(2, "primality");
  EXPECT_FALSE(is_probable_prime(Bignum(1), rng));
  EXPECT_FALSE(is_probable_prime(Bignum(0), rng));
  EXPECT_FALSE(is_probable_prime(Bignum(1000005), rng));
  // Carmichael number 561 = 3 * 11 * 17.
  EXPECT_FALSE(is_probable_prime(Bignum(561), rng));
  // Large semiprime: 1000003 * 1000033.
  EXPECT_FALSE(is_probable_prime(Bignum(1000003ULL) * Bignum(1000033ULL), rng));
}

TEST(RsaPrimality, GeneratedPrimeHasExactWidth) {
  Drbg rng(3, "primegen");
  const Bignum p = generate_prime(128, rng);
  EXPECT_EQ(p.bit_length(), 128u);
  EXPECT_TRUE(p.is_odd());
  EXPECT_TRUE(p.bit(126));  // second-highest bit forced
}

TEST_F(RsaTest, KeyPairInvariants) {
  const RsaKeyPair& kp = key();
  EXPECT_EQ(kp.pub.n.bit_length(), 1024u);
  EXPECT_EQ(kp.pub.e, Bignum(65537));
  EXPECT_EQ(kp.priv.p * kp.priv.q, kp.pub.n);
  // e*d = 1 mod phi
  const Bignum phi = (kp.priv.p - Bignum(1)) * (kp.priv.q - Bignum(1));
  EXPECT_EQ(kp.priv.e.mulmod(kp.priv.d, phi), Bignum(1));
}

TEST_F(RsaTest, TrapdoorRoundTrip) {
  Drbg rng(4, "trapdoor");
  for (int i = 0; i < 5; ++i) {
    const Bignum m = rng.random_below(key().pub.n);
    const Bignum c = rsa_public_apply(key().pub, m);
    EXPECT_EQ(rsa_private_apply(key().priv, c), m);
  }
}

TEST_F(RsaTest, CrtMatchesPlainExponentiation) {
  Drbg rng(5, "crt");
  const Bignum m = rng.random_below(key().pub.n);
  EXPECT_EQ(rsa_private_apply(key().priv, m),
            m.powmod(key().priv.d, key().priv.n));
}

TEST_F(RsaTest, SignVerifyRoundTrip) {
  const std::vector<std::uint8_t> message = {'p', 'v', 'r'};
  const auto signature = rsa_sign(key().priv, message);
  EXPECT_EQ(signature.size(), key().pub.modulus_bytes());
  EXPECT_TRUE(rsa_verify(key().pub, message, signature));
}

TEST_F(RsaTest, VerifyRejectsTamperedMessage) {
  const std::vector<std::uint8_t> message = {1, 2, 3, 4};
  const auto signature = rsa_sign(key().priv, message);
  std::vector<std::uint8_t> tampered = message;
  tampered[0] ^= 1;
  EXPECT_FALSE(rsa_verify(key().pub, tampered, signature));
}

TEST_F(RsaTest, VerifyRejectsTamperedSignature) {
  const std::vector<std::uint8_t> message = {1, 2, 3, 4};
  auto signature = rsa_sign(key().priv, message);
  signature[10] ^= 1;
  EXPECT_FALSE(rsa_verify(key().pub, message, signature));
}

TEST_F(RsaTest, VerifyRejectsWrongLengthSignature) {
  const std::vector<std::uint8_t> message = {1};
  auto signature = rsa_sign(key().priv, message);
  signature.pop_back();
  EXPECT_FALSE(rsa_verify(key().pub, message, signature));
}

TEST_F(RsaTest, VerifyRejectsSignatureGeModulus) {
  const std::vector<std::uint8_t> message = {1};
  const auto signature = key().pub.n.to_bytes_be(key().pub.modulus_bytes());
  EXPECT_FALSE(rsa_verify(key().pub, message, signature));
}

TEST_F(RsaTest, EmptyMessageSigns) {
  const std::vector<std::uint8_t> empty;
  const auto signature = rsa_sign(key().priv, empty);
  EXPECT_TRUE(rsa_verify(key().pub, empty, signature));
}

TEST_F(RsaTest, PublicKeyEncodeDecodeRoundTrip) {
  const auto encoded = key().pub.encode();
  const RsaPublicKey decoded = RsaPublicKey::decode(encoded);
  EXPECT_EQ(decoded, key().pub);
}

TEST_F(RsaTest, SignaturesAreDeterministic) {
  const std::vector<std::uint8_t> message = {'x'};
  EXPECT_EQ(rsa_sign(key().priv, message), rsa_sign(key().priv, message));
}

TEST_F(RsaTest, CrossKeyVerificationFails) {
  Drbg rng(6, "rsa-second-key");
  const RsaKeyPair other = generate_rsa_keypair(512, rng);
  const std::vector<std::uint8_t> message = {'y'};
  const auto signature = rsa_sign(key().priv, message);
  EXPECT_FALSE(rsa_verify(other.pub, message, signature));
}

// Known-answer vectors computed by an independent RSASSA-PKCS1-v1_5 +
// SHA-256 implementation (pure-Python pow() over a fixed 1024-bit key).
// They pin the whole verify path — EMSA encoding, byte order, and the
// Montgomery exponentiation — to an outside reference, so a kernel bug
// that the self-consistent differential tests could share is caught here.
struct RsaKat {
  const char* message;
  const char* signature_hex;
};

TEST(RsaKnownAnswer, PinnedVectorsVerify) {
  RsaPublicKey pub;
  pub.n = Bignum::from_hex(
      "e4f68f1e47b8d1dfae93906e15aad518129eaa462fc9bb55329484f0618fcafe"
      "b3c95c8c135e452058c631c0110513f8137dbef3c9b0d1382a918e267fe81b77"
      "13492fb813d58bc8a495101a1772658ffbd510c0dcb13ff7838786514589e427"
      "eb702a3d2ff0bf2757889eff9bda47ce883d9ea3f88d3229f97931b9af09269f");
  pub.e = Bignum(65537);
  const RsaKat kats[] = {
      {"pvr montgomery known answer one",
       "cf555cb4af8dc6a549876ebd6ba5ed2a2033423f08f1b7b7fe65b677da79cf32"
       "fe698eee191fa689028497357e5baf1a000e09f20039e5489b1530350440ff13"
       "de55ba4454b620f7873d998d2a0c799ac0edbc3242c3e43d0eb9f0604a467479"
       "dd4e761ef150eb17289985cc88d7993bc603063ca75f72c80af42c936833142d"},
      {"",
       "90cd86aecf221d70022c1342f630d8066b46613de10e790ef04293fac947a041"
       "8fd916537c42f7895a5cb66aa2bdeab8559cfbeaff9b3d88f55b1ece3640ac0c"
       "6cfd6e0fb9d33d496c33e7dad7dd2f1a17a86d293680423a16a8ebf0a4e9245a"
       "6c656efba33f0d6ad75ff153c143bc24b38a839046838a60c2a4a7c55f979d67"},
      {"The quick brown fox jumps over the lazy dog",
       "9065822ea9a77979209689f1ab547adcc493618a876f586eda6dacf18fea57bd"
       "d447d23b3b01c66cd370312eb9099039a19e00b300561f3c8158dbc6861aa3ee"
       "bb2f55094939daac4ee80c28b0650f579af66d134ee06e3b52a44a0bb35a31e0"
       "25341495243ab2466e45b3f39165df593125d05f9b1a1a350122e710ba111069"},
  };
  const RsaVerifyKey prepared(pub);
  for (const RsaKat& kat : kats) {
    const std::string_view text = kat.message;
    const std::vector<std::uint8_t> message(text.begin(), text.end());
    const std::vector<std::uint8_t> signature =
        Bignum::from_hex(kat.signature_hex).to_bytes_be(128);
    EXPECT_TRUE(rsa_verify(pub, message, signature)) << kat.message;
    EXPECT_TRUE(prepared.verify(message, signature)) << kat.message;

    // Any corruption must flip the verdict on both paths.
    std::vector<std::uint8_t> bad_sig = signature;
    bad_sig[17] ^= 0x20;
    EXPECT_FALSE(rsa_verify(pub, message, bad_sig)) << kat.message;
    EXPECT_FALSE(prepared.verify(message, bad_sig)) << kat.message;
    std::vector<std::uint8_t> bad_msg = message;
    bad_msg.push_back('!');
    EXPECT_FALSE(prepared.verify(bad_msg, signature)) << kat.message;
  }
}

// The stateless free function and the prepared-key class are the same
// verifier: equal verdicts over matched and mismatched pairs.
TEST_F(RsaTest, PreparedKeyAgreesWithStatelessVerify) {
  const RsaVerifyKey prepared(key().pub);
  Drbg rng(7, "rsa-prepared-agree");
  for (int i = 0; i < 8; ++i) {
    const std::vector<std::uint8_t> message = rng.bytes(1 + i * 13);
    auto signature = rsa_sign(key().priv, message);
    EXPECT_EQ(rsa_verify(key().pub, message, signature),
              prepared.verify(message, signature));
    signature[0] ^= 1;
    EXPECT_EQ(rsa_verify(key().pub, message, signature),
              prepared.verify(message, signature));
    // Structurally invalid: wrong length and s >= n.
    EXPECT_FALSE(prepared.verify(message, rng.bytes(17)));
    const auto too_big =
        key().pub.n.to_bytes_be((key().pub.n.bit_length() + 7) / 8);
    EXPECT_FALSE(prepared.verify(message, too_big));
  }
}

// A large-e key (the case a batched product-test accept would target; see
// DESIGN.md §15 on why none exists): the prepared key still returns
// exactly rsa_verify's verdict, including for the s' = n - s forgery.
TEST_F(RsaTest, LargeExponentPreparedKeyMatchesStatelessVerify) {
  // Re-derive a key pair over the shared modulus with a ~80-bit exponent.
  const RsaPrivateKey& base = key().priv;
  const Bignum p1 = base.p - Bignum(1);
  const Bignum q1 = base.q - Bignum(1);
  const Bignum phi = p1 * q1;
  Drbg rng(7, "rsa-large-exponent");
  Bignum e;
  do {
    e = rng.random_bits(80);
    e.set_bit(0);
  } while (!Bignum::gcd(e, phi).is_one());
  const Bignum d = e.invmod(phi);
  const RsaPrivateKey priv{.n = base.n,
                           .e = e,
                           .d = d,
                           .p = base.p,
                           .q = base.q,
                           .d_p = d % p1,
                           .d_q = d % q1,
                           .q_inv = base.q_inv};
  const RsaPublicKey pub = priv.public_key();
  ASSERT_GT(pub.e.bit_length(), 64u);
  const RsaVerifyKey prepared(pub);

  std::vector<std::vector<std::uint8_t>> messages;
  std::vector<std::vector<std::uint8_t>> signatures;
  for (std::size_t i = 0; i < 6; ++i) {
    messages.push_back(rng.bytes(64));
    signatures.push_back(rsa_sign(priv, messages.back()));
  }
  signatures[4][0] ^= 0x80;  // corrupt one signature
  // Boyd–Pavlovski-style forgery: s' = n - s passes a naive product test
  // half the time (even random exponents), so it must be rejected here.
  const Bignum negated = pub.n - Bignum::from_bytes_be(signatures[0]);
  messages.push_back(messages[0]);
  signatures.push_back(negated.to_bytes_be(pub.modulus_bytes()));

  for (std::size_t i = 0; i < messages.size(); ++i) {
    const bool verdict = prepared.verify(messages[i], signatures[i]);
    EXPECT_EQ(verdict, rsa_verify(pub, messages[i], signatures[i])) << i;
    EXPECT_EQ(verdict, i != 4 && i != 6) << i;
  }
}

}  // namespace
}  // namespace pvr::crypto
