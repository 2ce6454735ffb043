// Prover statements as leaves of one window's Merkle tree (paper §3.6,
// §3.8; DESIGN.md §8.3).
//
// A prover signs one root per collection window. Every statement it makes
// in that window — each round's CommitmentBundle, each RevealToProvider,
// the RevealToRecipient and the ExportStatement — is one leaf of the tree
// under that root, and travels as leaf + inclusion proof. A leaf is
//
//   u8 kind || 16-byte salt || statement encoding
//
// The kind tag types the statement. The salt, drawn from the prover's
// DRBG, hides each leaf's digest: a neighbor sees sibling digests in its
// own proofs, and without the salt it could test guesses about another
// neighbor's reveal or the export statement against them (§3.2
// confidentiality).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/encoding.h"
#include "crypto/merkle.h"

namespace pvr::core {

enum class LeafKind : std::uint8_t {
  kBundle = 0,
  kProviderReveal = 1,
  kRecipientReveal = 2,
  kExport = 3,
};

inline constexpr std::size_t kLeafSaltSize = 16;

struct WindowLeaf {
  LeafKind kind = LeafKind::kBundle;
  std::array<std::uint8_t, kLeafSaltSize> salt{};
  std::vector<std::uint8_t> payload;  // the statement's encoding

  [[nodiscard]] bool operator==(const WindowLeaf&) const = default;

  // kind || salt || payload: the exact bytes the tree hashes as this leaf.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  // Throws std::out_of_range on an unknown kind or a short buffer.
  [[nodiscard]] static WindowLeaf decode(std::span<const std::uint8_t> data);
};

// One leaf with its inclusion proof under the window root it was sent with.
struct LeafOpening {
  WindowLeaf leaf;
  crypto::MerkleProof proof;

  [[nodiscard]] bool operator==(const LeafOpening&) const = default;

  // u32-length-prefixed leaf bytes, then the proof.
  void encode(crypto::ByteWriter& writer) const;
  [[nodiscard]] static LeafOpening decode(crypto::ByteReader& reader);
  // Smallest encoding: an empty leaf payload and a one-leaf proof.
  static constexpr std::size_t kMinEncodedSize = 4 + 1 + kLeafSaltSize + 9;
};

}  // namespace pvr::core
