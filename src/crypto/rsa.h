// RSA key generation and PKCS#1 v1.5 signatures (RFC 8017) over SHA-256.
//
// The paper's overhead analysis (§3.8) is phrased in terms of RSA-1024
// signatures (~2 ms on 2011 hardware); route announcements, commitments,
// and evidence objects in this repo are all signed with this module.
// Signing uses the CRT on Montgomery contexts for p and q that
// generate_rsa_keypair builds once per key, and runs the two CRT
// exponentiations as one interleaved MontgomeryCtx::powmod_pair (on the
// ADX kernels at 4 limbs, i.e. 512-bit keys, where cpuid reports them);
// verification uses the public exponent directly, on RsaVerifyKey's
// per-key context.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "crypto/bignum.h"
#include "crypto/drbg.h"
#include "crypto/montgomery.h"
#include "crypto/sha256.h"

namespace pvr::crypto {

struct RsaPublicKey {
  Bignum n;  // modulus
  Bignum e;  // public exponent

  [[nodiscard]] std::size_t modulus_bytes() const {
    return (n.bit_length() + 7) / 8;
  }
  [[nodiscard]] bool operator==(const RsaPublicKey&) const = default;

  // Canonical encoding (for hashing into node identities and gossip).
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static RsaPublicKey decode(std::span<const std::uint8_t> data);
};

// The Montgomery contexts of the two CRT moduli.
struct RsaCrtContexts {
  MontgomeryCtx p;
  MontgomeryCtx q;
};

struct RsaPrivateKey {
  Bignum n;
  Bignum e;
  Bignum d;
  // CRT components.
  Bignum p;
  Bignum q;
  Bignum d_p;    // d mod (p-1)
  Bignum d_q;    // d mod (q-1)
  Bignum q_inv;  // q^{-1} mod p
  // Contexts for p and q, built once by generate_rsa_keypair. Immutable and
  // shared, so copies of the key stay cheap and concurrent signers need no
  // lock. rsa_private_apply requires them: a key assembled by hand must
  // carry the contexts of its own p and q.
  std::shared_ptr<const RsaCrtContexts> crt;

  [[nodiscard]] RsaPublicKey public_key() const { return {.n = n, .e = e}; }
};

struct RsaKeyPair {
  RsaPublicKey pub;
  RsaPrivateKey priv;
};

// Miller–Rabin with `rounds` random bases (error < 4^-rounds).
[[nodiscard]] bool is_probable_prime(const Bignum& n, Drbg& rng, int rounds = 24);

// Generates a random prime with exactly `bits` bits (top two bits set, so
// products of two such primes have exactly 2*bits bits). Throws
// std::runtime_error after 64·bits composite candidates, which only broken
// arithmetic reaches.
[[nodiscard]] Bignum generate_prime(std::size_t bits, Drbg& rng);

// Generates an RSA key pair with a modulus of `modulus_bits` bits, e = 65537.
[[nodiscard]] RsaKeyPair generate_rsa_keypair(std::size_t modulus_bits, Drbg& rng);

// PKCS#1 v1.5 signature over SHA-256(message). The result has exactly
// modulus_bytes() bytes.
[[nodiscard]] std::vector<std::uint8_t> rsa_sign(
    const RsaPrivateKey& key, std::span<const std::uint8_t> message);

[[nodiscard]] bool rsa_verify(const RsaPublicKey& key,
                              std::span<const std::uint8_t> message,
                              std::span<const std::uint8_t> signature);

// Raw RSA trapdoor permutation (used by the ring-signature scheme).
[[nodiscard]] Bignum rsa_public_apply(const RsaPublicKey& key, const Bignum& x);
[[nodiscard]] Bignum rsa_private_apply(const RsaPrivateKey& key, const Bignum& y);

// A public key with its Montgomery context built once and reused across
// every verification — the per-key precompute that rsa_verify otherwise
// redoes per call (one R^2 division each time). Thread-safe after
// construction: all members are immutable and verify() is const with no
// internal state. core::VerifyContext owns one of these per directory key.
//
// verify() returns EXACTLY what rsa_verify returns for every input; the
// two-step prepare()/finish() split exists so a verdict cache can sit
// between the cheap structural/encoding work and the expensive
// exponentiation without changing any verdict.
class RsaVerifyKey {
 public:
  explicit RsaVerifyKey(RsaPublicKey key);

  [[nodiscard]] const RsaPublicKey& key() const noexcept { return key_; }

  // Structural screening + EMSA-PKCS1-v1_5 encoding. nullopt means the
  // signature cannot possibly verify (wrong length, s >= n, modulus too
  // small) — the exact inputs rsa_verify rejects before exponentiating.
  struct Prepared {
    Bignum s;        // the signature as an integer, < n
    Bignum encoded;  // the expected EMSA-PKCS1-v1_5 encoding of message
  };
  [[nodiscard]] std::optional<Prepared> prepare(
      std::span<const std::uint8_t> message,
      std::span<const std::uint8_t> signature) const;

  // The e-exponentiation and comparison (counts crypto.rsa_verifies).
  [[nodiscard]] bool finish(const Prepared& prepared) const;

  [[nodiscard]] bool verify(std::span<const std::uint8_t> message,
                            std::span<const std::uint8_t> signature) const;

  // s^e mod n through the shared Montgomery context.
  [[nodiscard]] Bignum public_apply(const Bignum& x) const;

 private:
  RsaPublicKey key_;
  std::optional<MontgomeryCtx> mont_;  // absent for even/oversized moduli
};

}  // namespace pvr::crypto
