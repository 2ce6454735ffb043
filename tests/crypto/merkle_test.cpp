#include "crypto/merkle.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace pvr::crypto {
namespace {

[[nodiscard]] std::vector<std::vector<std::uint8_t>> make_leaves(std::size_t n) {
  std::vector<std::vector<std::uint8_t>> leaves(n);
  for (std::size_t i = 0; i < n; ++i) {
    leaves[i] = {static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8)};
  }
  return leaves;
}

TEST(MerkleTest, EmptyThrows) {
  EXPECT_THROW((void)MerkleTree::build({}), std::invalid_argument);
}

TEST(MerkleTest, SingleLeaf) {
  const auto leaves = make_leaves(1);
  const MerkleTree tree = MerkleTree::build(leaves);
  EXPECT_EQ(tree.leaf_count(), 1u);
  const MerkleProof proof = tree.prove(0);
  EXPECT_TRUE(proof.siblings.empty());
  EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[0], proof));
}

TEST(MerkleTest, ProveOutOfRangeThrows) {
  const auto leaves = make_leaves(3);
  const MerkleTree tree = MerkleTree::build(leaves);
  EXPECT_THROW((void)tree.prove(3), std::out_of_range);
}

TEST(MerkleTest, TamperedLeafFailsVerification) {
  const auto leaves = make_leaves(8);
  const MerkleTree tree = MerkleTree::build(leaves);
  const MerkleProof proof = tree.prove(2);
  std::vector<std::uint8_t> tampered = leaves[2];
  tampered[0] ^= 1;
  EXPECT_FALSE(MerkleTree::verify(tree.root(), tampered, proof));
}

TEST(MerkleTest, WrongIndexFailsVerification) {
  const auto leaves = make_leaves(8);
  const MerkleTree tree = MerkleTree::build(leaves);
  MerkleProof proof = tree.prove(2);
  proof.leaf_index = 3;
  EXPECT_FALSE(MerkleTree::verify(tree.root(), leaves[2], proof));
}

TEST(MerkleTest, TruncatedProofFailsVerification) {
  const auto leaves = make_leaves(8);
  const MerkleTree tree = MerkleTree::build(leaves);
  MerkleProof proof = tree.prove(2);
  proof.siblings.pop_back();
  EXPECT_FALSE(MerkleTree::verify(tree.root(), leaves[2], proof));
}

// A sibling list must be exactly as deep as the claimed tree. A proof for
// leaf 2 of an 8-leaf tree, relabelled as a 4-leaf proof, carries one
// sibling too many: the old walk still reached the root, so a 4-leaf claim
// was provable from an 8-leaf tree.
TEST(MerkleTest, PaddedProofFailsVerification) {
  const auto leaves = make_leaves(8);
  const MerkleTree tree = MerkleTree::build(leaves);
  MerkleProof padded = tree.prove(2);
  ASSERT_EQ(padded.siblings.size(), 3u);
  padded.leaf_count = 4;
  EXPECT_FALSE(MerkleTree::verify(tree.root(), leaves[2], padded));
  MerkleProof extra = tree.prove(2);
  extra.siblings.push_back(tree.root());
  EXPECT_FALSE(MerkleTree::verify(tree.root(), leaves[2], extra));
}

TEST(MerkleTest, TruncatedProofRelabelledAsSmallerTreeFails) {
  // Dropping the top sibling and claiming a 4-leaf tree matches the depth,
  // but reaches the left subtree's root, not the tree's.
  const auto leaves = make_leaves(8);
  const MerkleTree tree = MerkleTree::build(leaves);
  MerkleProof truncated = tree.prove(2);
  truncated.siblings.pop_back();
  truncated.leaf_count = 4;
  EXPECT_FALSE(MerkleTree::verify(tree.root(), leaves[2], truncated));
}

TEST(MerkleTest, DepthMatchesPaddedTreeHeight) {
  EXPECT_EQ(MerkleTree::depth(1), 0u);
  EXPECT_EQ(MerkleTree::depth(2), 1u);
  EXPECT_EQ(MerkleTree::depth(5), 3u);
  EXPECT_EQ(MerkleTree::depth(8), 3u);
  EXPECT_EQ(MerkleTree::depth(9), 4u);
  for (const std::size_t n : {1u, 3u, 6u, 8u, 13u}) {
    EXPECT_EQ(MerkleTree::build(make_leaves(n)).prove(0).siblings.size(),
              MerkleTree::depth(n))
        << n;
  }
}

TEST(MerkleTest, PaddingLeafNotProvable) {
  // 5 leaves pad to 8; indices 5..7 are padding and must be rejected.
  const auto leaves = make_leaves(5);
  const MerkleTree tree = MerkleTree::build(leaves);
  EXPECT_THROW((void)tree.prove(5), std::out_of_range);
  MerkleProof proof = tree.prove(4);
  proof.leaf_index = 5;  // forged index pointing into padding
  proof.leaf_count = 8;
  EXPECT_FALSE(MerkleTree::verify(tree.root(), leaves[4], proof));
}

TEST(MerkleTest, LeafInteriorDomainSeparation) {
  // A leaf whose payload equals (0x01 || h1 || h2) must not hash like the
  // interior node over (h1, h2).
  const Digest h1 = sha256("left");
  const Digest h2 = sha256("right");
  std::vector<std::uint8_t> payload;
  payload.push_back(0x01);
  payload.insert(payload.end(), h1.begin(), h1.end());
  payload.insert(payload.end(), h2.begin(), h2.end());
  EXPECT_NE(MerkleTree::hash_leaf(payload), MerkleTree::hash_interior(h1, h2));
}

TEST(MerkleTest, RootChangesWithAnyLeaf) {
  auto leaves = make_leaves(16);
  const Digest original_root = MerkleTree::build(leaves).root();
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    auto modified = leaves;
    modified[i][0] ^= 0xff;
    EXPECT_NE(MerkleTree::build(modified).root(), original_root) << "leaf " << i;
  }
}

class MerkleAllLeavesProvable : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleAllLeavesProvable, EveryLeafVerifies) {
  const auto leaves = make_leaves(GetParam());
  const MerkleTree tree = MerkleTree::build(leaves);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const MerkleProof proof = tree.prove(i);
    EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[i], proof)) << "leaf " << i;
    // Proof length is ceil(log2(padded leaf count)).
    EXPECT_EQ(proof.siblings.size(),
              static_cast<std::size_t>(std::bit_width(std::bit_ceil(GetParam())) - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleAllLeavesProvable,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16, 33, 64));

}  // namespace
}  // namespace pvr::crypto
