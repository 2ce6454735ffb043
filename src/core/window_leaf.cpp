#include "core/window_leaf.h"

#include <algorithm>
#include <stdexcept>

namespace pvr::core {

std::vector<std::uint8_t> WindowLeaf::encode() const {
  std::vector<std::uint8_t> out;
  out.reserve(1 + salt.size() + payload.size());
  out.push_back(static_cast<std::uint8_t>(kind));
  out.insert(out.end(), salt.begin(), salt.end());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

WindowLeaf WindowLeaf::decode(std::span<const std::uint8_t> data) {
  if (data.size() < 1 + kLeafSaltSize) {
    throw std::out_of_range("WindowLeaf::decode: short leaf");
  }
  if (data[0] > static_cast<std::uint8_t>(LeafKind::kExport)) {
    throw std::out_of_range("WindowLeaf::decode: unknown kind");
  }
  WindowLeaf leaf;
  leaf.kind = static_cast<LeafKind>(data[0]);
  std::copy_n(data.begin() + 1, kLeafSaltSize, leaf.salt.begin());
  leaf.payload.assign(data.begin() + 1 + kLeafSaltSize, data.end());
  return leaf;
}

void LeafOpening::encode(crypto::ByteWriter& writer) const {
  writer.put_bytes(leaf.encode());
  proof.encode(writer);
}

LeafOpening LeafOpening::decode(crypto::ByteReader& reader) {
  LeafOpening opening;
  opening.leaf = WindowLeaf::decode(reader.get_bytes());
  opening.proof = crypto::MerkleProof::decode(reader);
  return opening;
}

}  // namespace pvr::core
