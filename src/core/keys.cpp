#include "core/keys.h"

#include "crypto/encoding.h"

namespace pvr::core {

void KeyDirectory::add(bgp::AsNumber asn, crypto::RsaPublicKey key) {
  keys_[asn] = std::move(key);
}

const crypto::RsaPublicKey* KeyDirectory::find(bgp::AsNumber asn) const {
  const auto it = keys_.find(asn);
  return it == keys_.end() ? nullptr : &it->second;
}

bool KeyDirectory::contains(bgp::AsNumber asn) const {
  return keys_.contains(asn);
}

std::vector<bgp::AsNumber> KeyDirectory::members() const {
  std::vector<bgp::AsNumber> out;
  out.reserve(keys_.size());
  for (const auto& [asn, key] : keys_) out.push_back(asn);
  return out;
}

std::vector<std::uint8_t> message_signing_input(
    bgp::AsNumber signer, std::span<const std::uint8_t> payload) {
  crypto::ByteWriter writer;
  writer.put_string("pvr-signed-message");
  writer.put_u32(signer);
  writer.put_bytes(payload);
  return writer.take();
}


std::vector<std::uint8_t> SignedMessage::encode() const {
  crypto::ByteWriter writer;
  writer.put_u32(signer);
  writer.put_bytes(payload);
  writer.put_bytes(signature);
  return writer.take();
}

SignedMessage SignedMessage::decode(std::span<const std::uint8_t> data) {
  crypto::ByteReader reader(data);
  SignedMessage out;
  out.signer = reader.get_u32();
  out.payload = reader.get_bytes();
  out.signature = reader.get_bytes();
  return out;
}

SignedMessage sign_message(bgp::AsNumber signer,
                           const crypto::RsaPrivateKey& key,
                           std::vector<std::uint8_t> payload) {
  SignedMessage message{.signer = signer, .payload = std::move(payload), .signature = {}};
  message.signature = crypto::rsa_sign(key, message_signing_input(signer, message.payload));
  return message;
}

bool verify_message(const KeyDirectory& directory, const SignedMessage& message) {
  const crypto::RsaPublicKey* key = directory.find(message.signer);
  if (key == nullptr) return false;
  return crypto::rsa_verify(
      *key, message_signing_input(message.signer, message.payload),
      message.signature);
}

AsKeyPairs generate_keys(const std::vector<bgp::AsNumber>& asns,
                         crypto::Drbg& rng, std::size_t modulus_bits) {
  AsKeyPairs out;
  for (const bgp::AsNumber asn : asns) {
    crypto::RsaKeyPair pair = crypto::generate_rsa_keypair(modulus_bits, rng);
    out.directory.add(asn, pair.pub);
    out.private_keys.emplace(asn, std::move(pair));
  }
  return out;
}

}  // namespace pvr::core
