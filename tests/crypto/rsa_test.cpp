#include "crypto/rsa.h"

#include <gtest/gtest.h>

#include <array>
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
  // The CRT contexts are built with the key, for its own p and q, and a
  // copy of the key shares them.
  ASSERT_NE(kp.priv.crt, nullptr);
  EXPECT_EQ(kp.priv.crt->p.modulus(), kp.priv.p);
  EXPECT_EQ(kp.priv.crt->q.modulus(), kp.priv.q);
  const RsaKeyPair copy = kp;
  EXPECT_EQ(copy.priv.crt.get(), kp.priv.crt.get());
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

// Signatures pinned from the schoolbook-era signing path: keys of 512, 1024
// and 2048 bits (CRT halves on the 4-, 8- and 16-limb Montgomery kernels)
// drawn from a fixed Drbg, three messages each. PKCS#1 v1.5 signing is
// deterministic, so any change to the CRT contexts or the kernels must
// reproduce these bytes exactly.
struct PinnedSigningKey {
  std::size_t modulus_bits;
  std::array<RsaKat, 3> signatures;
};

TEST(RsaKnownAnswer, PinnedSignaturesReproduce) {
  const PinnedSigningKey pinned[] = {
      {512,
       {{
        {"",
          "57457c07cec05a89d2251884e974bb5130feb7b1c7b82d806b0ee16f64ffa3fb"
          "44580136da24633fbc2c1499771a753092fd0801a09cab6d9ede8786245987af"},
        {"pvr pinned signing vector",
          "255d4f4f94e3450ba9e0478a8aac0f57615f8ea56224a8ae5c1167b07b6b8a37"
          "01345353a97a7e42bbe137f8d65a5213bff39f945e5b521ba3d937233459a861"},
        {"The quick brown fox jumps over the lazy dog",
          "835e3fe3b5a27c63c1ef255c6dba60169d684e124f692cf95ab237d462acce17"
          "4e3617100d0013010eab31d764356a8c06e87745b0e50d6a087f97f502b363cd"},
       }}},
      {1024,
       {{
        {"",
          "369bfe5011e76a9d848f8ae62359b750c8fbbff4910d03953a0219f4f694a7a4"
          "5144f3a5b8c7d3c610907b439cf40f16f0ce147096fe2d4c2dd9bc4784e613ff"
          "db3179823b79f54950f9a5fd60fe7bb5e2e88e85a9cedca87de3df4654b35e08"
          "6f63a1591517a3049aaa3f0047365494f3fd77d2279ef0f12d6546d18443a16a"},
        {"pvr pinned signing vector",
          "97204f607ee1a2a4ca10315b085da5b4bc947967e5aef6ce5d26b38b80268c0e"
          "77fcb67229eddc10e54447f7b746859e702411fc1880a1b9da8536d5a92b455c"
          "1bcf3285864bce8c28dde5b4137898e540335ade8fd56210041fc19a35384f71"
          "9044d9308805027725d46257f86289d41eb2bf2722a4f5df944287f156a504b8"},
        {"The quick brown fox jumps over the lazy dog",
          "8ce48037cc8a48505549935903d06843e7eb057742efd3144c27ee8f37a9313e"
          "6273d193aad37839a643793f48bc8a937ea1440e281f7e74b7bdaaf2c6c83b7f"
          "3bd93de0cf5d0cd972271e7d19a5a5063b289c300b95336d533dca7f618d5194"
          "7bd97dba88145333df3e5462f4e558dc45ce8ee88fd36472335dd223b7876163"},
       }}},
      {2048,
       {{
        {"",
          "9040308041b7c2378a799d74056fe5468d0567679256c0b6f1a9743ec1a4959f"
          "07340f2c47973971f55df33ba2222a5672a7e073e31fff454556cd163963aae0"
          "24b1409119419118822a8db5ec7a94e56be5739c2f131d0ef07b534b5677cf91"
          "5d5266fbf7e4d309788601567cf0a77e3299adbf9ba1390118bfe3f4e07ae766"
          "cf7ef9cbe3aa122f22aeea255e3e328b316cc162fe8297d1a707a5b0a9b1d8ac"
          "bf9a76cdc4b45bba282f777acabe8d3a297ab5e7541fb76ba520d330f6d6eabf"
          "50734bd6dee9dae33cb3e52c9a27f5a43dec37dcf3d747a95f37234be60c05cb"
          "8d92765e85c1cb1b4bf536c06b0c30d5f290b7264ba068b0bc918513a0cde587"},
        {"pvr pinned signing vector",
          "29dba7444f3bb96ae52deaff0a413cc4ca878b1caf22abd806d0af1e0ad96bb7"
          "ebaa4df87ec968f277e1e1ed3ae0d139f94ae5e473680b0ef2832df83deb478b"
          "ad49e5f24d20338fafa9393ed5e87523462f8964604706287fd24014d2f5fb5f"
          "21b9908cd2bfeb4fca9f739fb9da66634f5729c2d20a3fe06b5c9695d7df485d"
          "5522f1a1282c790b0e9af8794aa06b4b633ef94db162e587ccf6ae5c2154915b"
          "2501324859ecd9d341b837fe1d8ff5c8f15ac6f4368f93a56eeed61c144a454f"
          "64e720e25eaaf15e96b7d704318fceaab19709696623248caec31f946dae7688"
          "09ae66e3dee75b28040b231353b349882f515e30b26b0a83cf7698773d169d44"},
        {"The quick brown fox jumps over the lazy dog",
          "0577899232dec60e8bd06e818b083c7c89ddc0e71651a2b66ceeaa96962748c8"
          "f2a593d56c9bfaba4e3ddabba0fd0ba19a3ee9b00a16c467867a41807028f545"
          "2c5f3d1316ffb566e3ce34364f2d0fde10ed67964084b66378e1ed517b35566a"
          "107acf6459b57b9ed46fefd9fd149e4d370a1ed2a35fe6a649a9f09ce311b38a"
          "e4e2ef72a70f9d7756c009bb4f7a29c325d56e6dd9d6b6d9a0baf48f63dd97c0"
          "b0929b1c7ea1849be60a3d0b09066a2d670005b6f4574ba8316598cdc1676437"
          "c2ca266e524ce82fab6002c58b4364dbdc6ae876553813f71edb0d3eba56e4c5"
          "1964fec9cec7b93d1897971464ea9af3b07d40ea2e7a2919b51faa43467afe11"},
       }}},
  };
  for (const PinnedSigningKey& key : pinned) {
    Drbg rng(key.modulus_bits, "rsa-pinned-signing");
    const RsaKeyPair pair = generate_rsa_keypair(key.modulus_bits, rng);
    for (const RsaKat& kat : key.signatures) {
      const std::string_view text = kat.message;
      const std::vector<std::uint8_t> message(text.begin(), text.end());
      const std::vector<std::uint8_t> signature = rsa_sign(pair.priv, message);
      EXPECT_EQ(signature, Bignum::from_hex(kat.signature_hex)
                               .to_bytes_be(pair.pub.modulus_bytes()))
          << key.modulus_bits << " bits, message \"" << kat.message << "\"";
      EXPECT_TRUE(rsa_verify(pair.pub, message, signature));
    }
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
                           .q_inv = base.q_inv,
                           .crt = base.crt};
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
