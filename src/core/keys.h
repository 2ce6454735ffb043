// Per-AS signing keys and signed message envelopes.
//
// Every PVR artifact that can become evidence — route announcements,
// commitment bundles, reveals — travels inside a SignedMessage so that a
// third-party auditor can later attribute it to its author (paper §2.3,
// "Evidence"). Key distribution is assumed out of band (an RPKI-like
// directory), as in S-BGP.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "bgp/as_path.h"
#include "crypto/rsa.h"

namespace pvr::core {

// Public keys of all participating ASes.
class KeyDirectory {
 public:
  void add(bgp::AsNumber asn, crypto::RsaPublicKey key);
  [[nodiscard]] const crypto::RsaPublicKey* find(bgp::AsNumber asn) const;
  [[nodiscard]] bool contains(bgp::AsNumber asn) const;
  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }
  [[nodiscard]] std::vector<bgp::AsNumber> members() const;

 private:
  std::map<bgp::AsNumber, crypto::RsaPublicKey> keys_;
};

struct SignedMessage {
  bgp::AsNumber signer = 0;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> signature;

  [[nodiscard]] bool operator==(const SignedMessage&) const = default;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static SignedMessage decode(std::span<const std::uint8_t> data);
};

// Signs `payload` as `signer`. The signature covers signer || payload so a
// message cannot be re-attributed to another AS.
[[nodiscard]] SignedMessage sign_message(bgp::AsNumber signer,
                                         const crypto::RsaPrivateKey& key,
                                         std::vector<std::uint8_t> payload);

// The stateless reference verifier: crypto::rsa_verify on the signer's
// directory key over message_signing_input. False for an unknown signer.
// Protocol code verifies through a core::VerifyContext (verify_context.h),
// which returns exactly this verdict from prepared per-key state; tests
// compare it against this function.
[[nodiscard]] bool verify_message(const KeyDirectory& directory,
                                  const SignedMessage& message);

// The exact byte string rsa_sign / rsa_verify operate on for a
// SignedMessage (domain tag || signer || payload). Exposed so
// VerifyContext can screen and verify through its prepared per-key state.
[[nodiscard]] std::vector<std::uint8_t> message_signing_input(
    bgp::AsNumber signer, std::span<const std::uint8_t> payload);

// Generates one key pair per AS, deterministically from `rng`. 1024-bit by
// default, matching the paper's overhead discussion (§3.8).
struct AsKeyPairs {
  KeyDirectory directory;
  std::map<bgp::AsNumber, crypto::RsaKeyPair> private_keys;
};
[[nodiscard]] AsKeyPairs generate_keys(const std::vector<bgp::AsNumber>& asns,
                                       crypto::Drbg& rng,
                                       std::size_t modulus_bits = 1024);

}  // namespace pvr::core
