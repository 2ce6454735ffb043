// Shared signature-verification context: per-key Montgomery precompute
// plus an optional world-level verified-signature cache.
//
// PR 5 deduplicated re-VERIFIED roots per node (PvrNode::seen_roots_, one
// node skipping its own repeat work). This hoists the idea to a
// world-level service: ONE VerifyContext shared by every node and the
// engine, so
//
//   - each public key's MontgomeryCtx (crypto/montgomery.h) is built once
//     for the whole world instead of once per rsa_verify call, and
//   - with the verdict cache enabled, a signed root or bundle relayed
//     through k peers costs ONE RSA exponentiation total — every later
//     node's verify is a digest lookup returning the identical verdict.
//
// Determinism (DESIGN.md §15): a cache hit returns exactly the verdict the
// skipped exponentiation would have computed (verification is a pure
// function of the message bytes), so evidence, fingerprints, and report
// bytes are identical with the cache on or off, at any worker count.
// Only the COUNT of exponentiations becomes schedule-shaped — which is why
// crypto.rsa_verifies and crypto.world_cache_hits live in obs Domain::
// kSched, outside the SIM fingerprint. Hash work stays deterministic: the
// structural screen + EMSA encoding and the cache digest are computed on
// every call, hit or miss; only the exponentiation is elided.
//
// Threading: verify() and verify_key() are const and fully synchronized
// (shared_mutex around each map); engine workers, the simulation thread,
// and the scenario scoring pass may all use one context concurrently.
#pragma once

#include <memory>
#include <shared_mutex>
#include <unordered_map>

#include "core/keys.h"
#include "crypto/sha256.h"

namespace pvr::core {

class VerifyContext {
 public:
  // Borrows `directory` (which must outlive the context). Keys added to
  // the directory later are still found — per-key state is built lazily —
  // but replacing an existing key after its first use is not supported.
  explicit VerifyContext(const KeyDirectory* directory,
                         bool cache_verdicts = false);

  [[nodiscard]] const KeyDirectory& directory() const noexcept {
    return *directory_;
  }

  // Returns EXACTLY what core::verify_message(directory, message) returns.
  [[nodiscard]] bool verify(const SignedMessage& message) const;

  // The shared per-key verifier for `signer` (built on first use), or
  // nullptr when the directory has no key for it. The pointer stays valid
  // for the context's lifetime.
  [[nodiscard]] const crypto::RsaVerifyKey* verify_key(
      bgp::AsNumber signer) const;

  // Verdict-cache size (0 when caching is off) — exposed for tests and the
  // scenario report's memory accounting.
  [[nodiscard]] std::size_t cached_verdicts() const;

 private:
  struct DigestHash {
    [[nodiscard]] std::size_t operator()(const crypto::Digest& d) const {
      // SHA-256 output is uniform; the first 8 bytes are a perfect hash.
      std::size_t h = 0;
      for (std::size_t i = 0; i < sizeof(h); ++i) {
        h = (h << 8) | d[i];
      }
      return h;
    }
  };

  const KeyDirectory* directory_;  // not owned
  bool cache_verdicts_;

  mutable std::shared_mutex keys_mu_;
  mutable std::unordered_map<bgp::AsNumber,
                             std::unique_ptr<crypto::RsaVerifyKey>>
      keys_;

  mutable std::shared_mutex verdicts_mu_;
  mutable std::unordered_map<crypto::Digest, bool, DigestHash> verdicts_;
};

}  // namespace pvr::core
