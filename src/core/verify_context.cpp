#include "core/verify_context.h"

#include <mutex>

#include "crypto/encoding.h"
#include "obs/metrics.h"

namespace pvr::core {

VerifyContext::VerifyContext(const KeyDirectory* directory,
                             bool cache_verdicts)
    : directory_(directory), cache_verdicts_(cache_verdicts) {}

const crypto::RsaVerifyKey* VerifyContext::verify_key(
    bgp::AsNumber signer) const {
  {
    std::shared_lock lock(keys_mu_);
    const auto it = keys_.find(signer);
    if (it != keys_.end()) return it->second.get();
  }
  const crypto::RsaPublicKey* pub = directory_->find(signer);
  // Unknown signers are deliberately not negative-cached: the directory
  // may still gain the key, and re-checking a map miss is cheap.
  if (pub == nullptr) return nullptr;
  auto built = std::make_unique<crypto::RsaVerifyKey>(*pub);
  std::unique_lock lock(keys_mu_);
  const auto [it, inserted] = keys_.emplace(signer, std::move(built));
  return it->second.get();
}

bool VerifyContext::verify(const SignedMessage& message) const {
  const crypto::RsaVerifyKey* key = verify_key(message.signer);
  if (key == nullptr) return false;
  const std::vector<std::uint8_t> input =
      message_signing_input(message.signer, message.payload);
  const auto prepared = key->prepare(input, message.signature);
  if (!prepared.has_value()) return false;  // structurally invalid: never cached
  if (!cache_verdicts_) return key->finish(*prepared);

  // The cache key binds signer + payload (both inside the signing input)
  // and the signature bytes; length prefixes keep the pair unambiguous.
  // Uncounted: this digest is cache bookkeeping, and counting it would
  // make crypto.bytes_hashed (kSim, fingerprinted) depend on whether the
  // cache is enabled. All PROTOCOL hashing (screen + EMSA above) already
  // ran and counted identically for hit and miss.
  crypto::ByteWriter writer;
  writer.put_bytes(input);
  writer.put_bytes(message.signature);
  const std::vector<std::uint8_t> keyed = writer.take();
  const crypto::Digest digest = crypto::sha256_uncounted(keyed);
  {
    std::shared_lock lock(verdicts_mu_);
    const auto it = verdicts_.find(digest);
    if (it != verdicts_.end()) {
      PVR_OBS_COUNT(crypto_world_cache_hits, 1);
      return it->second;
    }
  }
  const bool ok = key->finish(*prepared);
  {
    std::unique_lock lock(verdicts_mu_);
    verdicts_.emplace(digest, ok);
  }
  return ok;
}

std::size_t VerifyContext::cached_verdicts() const {
  std::shared_lock lock(verdicts_mu_);
  return verdicts_.size();
}

}  // namespace pvr::core
