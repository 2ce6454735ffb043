// Flat Merkle hash trees (Merkle 1980; paper §3.6, §3.8).
//
// Used for batched route signing during BGP bursts: the speaker signs one
// root per batch and reveals routes individually with log-size inclusion
// proofs. Leaf and interior hashes are domain-separated (0x00 / 0x01
// prefixes) so a leaf can never be reinterpreted as an interior node.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/encoding.h"
#include "crypto/sha256.h"

namespace pvr::crypto {

struct MerkleProof {
  std::size_t leaf_index = 0;
  std::size_t leaf_count = 0;
  std::vector<Digest> siblings;  // bottom-up

  [[nodiscard]] bool operator==(const MerkleProof&) const = default;

  // Canonical wire form (proofs travel inside pvr.bundle.agg window
  // messages and evidence): u32 index, u32 leaf count, u8 sibling count,
  // then the siblings.
  void encode(ByteWriter& writer) const;
  [[nodiscard]] static MerkleProof decode(ByteReader& reader);
  [[nodiscard]] std::size_t encoded_size() const noexcept {
    return 9 + siblings.size() * kSha256DigestSize;
  }
};

class MerkleTree {
 public:
  // Builds a tree over the given leaf payloads. Throws std::invalid_argument
  // if `leaves` is empty.
  static MerkleTree build(std::span<const std::vector<std::uint8_t>> leaves);

  [[nodiscard]] const Digest& root() const noexcept { return levels_.back()[0]; }
  [[nodiscard]] std::size_t leaf_count() const noexcept { return leaf_count_; }

  // Inclusion proof for leaf `index`. Throws std::out_of_range.
  [[nodiscard]] MerkleProof prove(std::size_t index) const;

  // Verifies that `leaf_payload` is the leaf at proof.leaf_index under `root`.
  // The proof must carry exactly depth(proof.leaf_count) siblings. The leaf
  // count itself is the proof's claim; a caller holding a signed count must
  // compare it (several leaf counts share one depth).
  [[nodiscard]] static bool verify(const Digest& root,
                                   std::span<const std::uint8_t> leaf_payload,
                                   const MerkleProof& proof);

  // Levels above the leaves of a `leaf_count`-leaf tree: ceil(log2(n)).
  [[nodiscard]] static std::size_t depth(std::size_t leaf_count);

  [[nodiscard]] static Digest hash_leaf(std::span<const std::uint8_t> payload);
  [[nodiscard]] static Digest hash_interior(const Digest& left, const Digest& right);

 private:
  std::size_t leaf_count_ = 0;
  std::vector<std::vector<Digest>> levels_;  // levels_[0] = padded leaves
};

}  // namespace pvr::crypto
