#include "crypto/merkle.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace pvr::crypto {

void MerkleProof::encode(ByteWriter& writer) const {
  writer.put_u32(static_cast<std::uint32_t>(leaf_index));
  writer.put_u32(static_cast<std::uint32_t>(leaf_count));
  writer.put_u8(static_cast<std::uint8_t>(siblings.size()));
  for (const Digest& sibling : siblings) {
    writer.put_raw(std::span(sibling.data(), sibling.size()));
  }
}

MerkleProof MerkleProof::decode(ByteReader& reader) {
  MerkleProof proof;
  proof.leaf_index = reader.get_u32();
  proof.leaf_count = reader.get_u32();
  const std::uint8_t count = reader.get_u8();
  // A proof is one sibling per tree level; 32 levels covers any u32 leaf
  // count and keeps a hostile length field from forcing a big allocation.
  if (count > 32) throw std::out_of_range("MerkleProof::decode: too many siblings");
  proof.siblings.reserve(count);
  for (std::uint8_t i = 0; i < count; ++i) {
    const std::vector<std::uint8_t> raw = reader.get_raw(kSha256DigestSize);
    Digest digest;
    std::copy(raw.begin(), raw.end(), digest.begin());
    proof.siblings.push_back(digest);
  }
  return proof;
}

std::size_t MerkleTree::depth(std::size_t leaf_count) {
  return leaf_count <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(leaf_count - 1));
}

Digest MerkleTree::hash_leaf(std::span<const std::uint8_t> payload) {
  Sha256 hasher;
  const std::uint8_t tag = 0x00;
  hasher.update(std::span(&tag, 1));
  hasher.update(payload);
  return hasher.finalize();
}

Digest MerkleTree::hash_interior(const Digest& left, const Digest& right) {
  Sha256 hasher;
  const std::uint8_t tag = 0x01;
  hasher.update(std::span(&tag, 1));
  hasher.update(std::span(left.data(), left.size()));
  hasher.update(std::span(right.data(), right.size()));
  return hasher.finalize();
}

MerkleTree MerkleTree::build(std::span<const std::vector<std::uint8_t>> leaves) {
  if (leaves.empty()) {
    throw std::invalid_argument("MerkleTree::build: no leaves");
  }
  MerkleTree tree;
  tree.leaf_count_ = leaves.size();

  std::vector<Digest> level;
  level.reserve(leaves.size());
  for (const auto& payload : leaves) level.push_back(hash_leaf(payload));

  // Pad to a power of two with a distinguished padding digest. Duplicating
  // the last leaf (the naive approach) would let a forged proof re-point a
  // real payload at a padding index; the 0xff domain tag can never collide
  // with a real leaf (tag 0x00) or interior node (tag 0x01).
  const Digest padding = [] {
    const std::uint8_t tag = 0xff;
    return sha256(std::span(&tag, 1));
  }();
  while ((level.size() & (level.size() - 1)) != 0) level.push_back(padding);

  tree.levels_.push_back(std::move(level));
  while (tree.levels_.back().size() > 1) {
    const std::vector<Digest>& below = tree.levels_.back();
    std::vector<Digest> above(below.size() / 2);
    for (std::size_t i = 0; i < above.size(); ++i) {
      above[i] = hash_interior(below[2 * i], below[2 * i + 1]);
    }
    tree.levels_.push_back(std::move(above));
  }
  return tree;
}

MerkleProof MerkleTree::prove(std::size_t index) const {
  if (index >= leaf_count_) {
    throw std::out_of_range("MerkleTree::prove: leaf index out of range");
  }
  MerkleProof proof{.leaf_index = index, .leaf_count = leaf_count_, .siblings = {}};
  std::size_t pos = index;
  for (std::size_t level = 0; level + 1 < levels_.size(); ++level) {
    proof.siblings.push_back(levels_[level][pos ^ 1]);
    pos >>= 1;
  }
  return proof;
}

bool MerkleTree::verify(const Digest& root,
                        std::span<const std::uint8_t> leaf_payload,
                        const MerkleProof& proof) {
  if (proof.leaf_index >= proof.leaf_count) return false;
  // Exactly one sibling per level of a leaf_count-leaf tree: a truncated
  // or padded sibling list would prove membership in some other tree.
  if (proof.siblings.size() != depth(proof.leaf_count)) return false;
  Digest current = hash_leaf(leaf_payload);
  std::size_t pos = proof.leaf_index;
  for (const Digest& sibling : proof.siblings) {
    current = (pos & 1) ? hash_interior(sibling, current)
                        : hash_interior(current, sibling);
    pos >>= 1;
  }
  return current == root;
}

}  // namespace pvr::crypto
