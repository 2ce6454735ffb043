// Merkle-aggregated bundles in the form PvrNode ships (pvr.bundle.agg):
// signed per-prefix bundle envelopes as leaves under one signed root. Each
// opening must bind its bundle to the signed window statement, and a root
// whose signature fails must leave a verifier with no round state at all.
#include "core/bundle_aggregation.h"

#include <gtest/gtest.h>

#include "core/pvr_speaker.h"
#include "core/verify_context.h"

namespace pvr::core {
namespace {

constexpr bgp::AsNumber kProver = 1;

// One prover-signed CommitmentBundle per prefix of one epoch window.
[[nodiscard]] std::vector<SignedMessage> signed_bundles(
    bgp::AsNumber prover, std::uint64_t epoch, std::size_t prefixes,
    const crypto::RsaPrivateKey& key) {
  crypto::Drbg rng(12 + epoch, "agg-test-commits");
  std::vector<SignedMessage> out;
  for (std::uint32_t p = 0; p < prefixes; ++p) {
    CommitmentBundle bundle;
    bundle.id = ProtocolId{
        .prover = prover,
        .prefix = bgp::Ipv4Prefix(0x0A000000u + (p << 8), 24),
        .epoch = epoch};
    bundle.op = OperatorKind::kMinimum;
    bundle.max_len = 4;
    for (std::uint32_t i = 0; i < bundle.max_len; ++i) {
      bundle.bits.push_back(crypto::commit_bit(i >= 1, rng).first);
    }
    out.push_back(sign_message(prover, key, bundle.encode()));
  }
  return out;
}

struct AggregatedWorld {
  AsKeyPairs keys;
  AggregatedBundleMessage message;
  AggregatedBundle root;  // decoded message.signed_root.payload
};

[[nodiscard]] AggregatedWorld make_aggregated(std::size_t prefixes,
                                              std::uint64_t epoch) {
  AggregatedWorld world;
  crypto::Drbg key_rng(11, "agg-test-keys");
  world.keys = generate_keys({kProver, 2}, key_rng, 512);
  const crypto::RsaPrivateKey& key = world.keys.private_keys.at(kProver).priv;
  world.message = aggregate_signed_bundles(
      kProver, epoch, /*batch=*/0, signed_bundles(kProver, epoch, prefixes, key),
      key);
  world.root = AggregatedBundle::decode(world.message.signed_root.payload);
  return world;
}

TEST(AggregatedBundleTest, AllOpeningsVerify) {
  const AggregatedWorld world = make_aggregated(9, 5);
  ASSERT_EQ(world.message.openings.size(), 9u);
  EXPECT_TRUE(world.keys.directory.verify_context().verify(
      world.message.signed_root));
  EXPECT_EQ(world.root.prefix_count(), 9u);
  for (const SignedBundleOpening& opening : world.message.openings) {
    EXPECT_TRUE(verify_signed_opening(world.root, opening));
  }
}

TEST(AggregatedBundleTest, TamperedBundleRejected) {
  const AggregatedWorld world = make_aggregated(4, 1);
  // Even a bundle the prover itself re-signed after the fact must not
  // verify: it is not the leaf the root commits to. The tampered bundle
  // still decodes, names this window's prover and epoch and a covered
  // prefix, so only the Merkle inclusion proof can reject it.
  SignedBundleOpening tampered = world.message.openings[2];
  CommitmentBundle bundle = CommitmentBundle::decode(tampered.bundle.payload);
  bundle.bits[1].digest[0] ^= 1;
  tampered.bundle = sign_message(
      kProver, world.keys.private_keys.at(kProver).priv, bundle.encode());
  ASSERT_TRUE(world.keys.directory.verify_context().verify(tampered.bundle));
  const CommitmentBundle reopened =
      CommitmentBundle::decode(tampered.bundle.payload);
  ASSERT_EQ(reopened.id.prover, world.root.prover);
  ASSERT_EQ(reopened.id.epoch, world.root.epoch);
  ASSERT_TRUE(world.root.covers(reopened.id.prefix));
  ASSERT_NE(tampered.bundle, world.message.openings[2].bundle);
  EXPECT_FALSE(verify_signed_opening(world.root, tampered));
}

TEST(AggregatedBundleTest, CrossEpochTransplantRejected) {
  // A valid opening from epoch 1 must not verify against epoch 2's root.
  const AggregatedWorld epoch1 = make_aggregated(4, 1);
  const AggregatedWorld epoch2 = make_aggregated(4, 2);
  ASSERT_TRUE(verify_signed_opening(epoch1.root, epoch1.message.openings[0]));
  EXPECT_FALSE(verify_signed_opening(epoch2.root, epoch1.message.openings[0]));
}

// Node level: the prover itself sends a window whose root signature is
// corrupted. The verifier drops the whole message before touching round
// state, so it holds no bundle for any round. The same window with its
// signature intact opens every round — the control that makes the
// rejection meaningful.
TEST(AggregatedBundleTest, ForgedRootSignatureRejected) {
  const auto deliver_window = [](bool forge) {
    Figure1Handles handles = make_figure1_world({.seed = 23});
    Figure1World& world = *handles.world;
    const crypto::RsaPrivateKey& key =
        handles.keys->private_keys.at(world.prover).priv;
    AggregatedBundleMessage message = aggregate_signed_bundles(
        world.prover, 1, /*batch=*/0, signed_bundles(world.prover, 1, 4, key),
        key);
    if (forge) message.signed_root.signature[5] ^= 0x10;
    const bgp::AsNumber verifier = world.providers[0];
    world.sim.schedule(0, [&world, verifier, payload = message.encode()] {
      world.sim.send(net::Message{.from = world.prover,
                                  .to = verifier,
                                  .channel = kBundleAggChannel,
                                  .payload = payload});
    });
    world.sim.run();
    return std::pair{world.node(verifier).open_rounds(),
                     world.node(verifier).seen_root_epochs()};
  };
  EXPECT_EQ(deliver_window(/*forge=*/false), std::pair(std::size_t{4},
                                                        std::size_t{1}));
  EXPECT_EQ(deliver_window(/*forge=*/true), std::pair(std::size_t{0},
                                                       std::size_t{0}));
}

TEST(AggregatedBundleTest, OpeningRoundTripsOnWire) {
  const AggregatedWorld world = make_aggregated(5, 3);
  const AggregatedBundleMessage decoded =
      AggregatedBundleMessage::decode(world.message.encode());
  EXPECT_EQ(decoded.signed_root, world.message.signed_root);
  ASSERT_EQ(decoded.openings.size(), world.message.openings.size());
  const SignedBundleOpening& original = world.message.openings[3];
  EXPECT_EQ(decoded.openings[3].bundle, original.bundle);
  EXPECT_EQ(decoded.openings[3].proof, original.proof);
  EXPECT_TRUE(verify_signed_opening(world.root, decoded.openings[3]));

  const AggregatedBundle root2 = AggregatedBundle::decode(world.root.encode());
  EXPECT_EQ(root2.prover, world.root.prover);
  EXPECT_EQ(root2.epoch, world.root.epoch);
  EXPECT_EQ(root2.batch, world.root.batch);
  EXPECT_EQ(root2.prefixes, world.root.prefixes);
  EXPECT_EQ(root2.root, world.root.root);
}

}  // namespace
}  // namespace pvr::core
