// Regression coverage for root attachment: a node with thousands of
// simultaneously open rounds must attach a late-gossiped aggregation root
// to exactly the rounds its signed window claims (one ordered-map lookup
// per claimed prefix, never a scan of every open round per root), and a
// round that did not exist when its roots arrived must still prove
// the conflict at finalize (attach_root creates the round state on
// arrival; the old finalize-time decode scan over every seen root is
// gone — it was O(windows) per round, unusable on long online traces).
#include <gtest/gtest.h>

#include <cstdint>

#include "core/evidence.h"
#include "core/pvr_speaker.h"

namespace pvr::core {
namespace {

constexpr std::size_t kOpenRounds = 1200;
constexpr std::size_t kTargetIndex = 537;

[[nodiscard]] bgp::Ipv4Prefix open_prefix(std::size_t index) {
  return bgp::Ipv4Prefix(
      0x0A000000u + (static_cast<std::uint32_t>(index) << 8), 24);
}

struct RootConflictWorld {
  Figure1Handles handles;
  ProtocolId target_id;
  ProtocolId orphan_id;
};

// Opens kOpenRounds rounds on providers[0] (bookkeeping-only inputs, so an
// unserved round finalizes clean), then gossips TWO conflicting signed
// roots whose window claims only the target round's prefix and one orphan
// prefix that has no open round at all.
[[nodiscard]] RootConflictWorld run_root_conflict_world() {
  RootConflictWorld out{.handles = make_figure1_world({.seed = 41}),
                        .target_id = {},
                        .orphan_id = {}};
  Figure1World& world = *out.handles.world;
  const bgp::AsNumber observer = world.providers[0];
  const auto& prover_key =
      out.handles.keys->private_keys.at(world.prover).priv;

  out.target_id = ProtocolId{.prover = world.prover,
                             .prefix = open_prefix(kTargetIndex),
                             .epoch = 1};
  out.orphan_id = ProtocolId{.prover = world.prover,
                             .prefix = bgp::Ipv4Prefix(0x0B000000u, 24),
                             .epoch = 1};

  // Open rounds are created by explicit "I provide nothing" bookkeeping —
  // no signatures, so opening thousands stays cheap.
  for (std::size_t i = 0; i < kOpenRounds; ++i) {
    world.node(observer).provide_input(world.sim.transport(), 1, open_prefix(i),
                                       std::nullopt);
  }

  // Two conflicting windows (same epoch, same batch, fresh commitment
  // nonces) covering exactly (target, orphan).
  const std::map<bgp::AsNumber, std::optional<SignedMessage>> no_inputs;
  const auto make_window = [&](std::uint64_t rng_seed) {
    crypto::Drbg rng(rng_seed, "root-attach");
    const std::vector<ProverResult> rounds = {
        run_prover(out.target_id, OperatorKind::kMinimum, no_inputs, 16, rng, {}),
        run_prover(out.orphan_id, OperatorKind::kMinimum, no_inputs, 16, rng, {})};
    return seal_window(world.prover, 1, /*batch=*/0, 0, rounds, prover_key, rng)
        .honest.message_for_recipient();
  };
  const AggregatedBundleMessage window_a = make_window(81);
  const AggregatedBundleMessage window_b = make_window(82);
  EXPECT_NE(window_a.signed_root.payload, window_b.signed_root.payload);

  // The roots arrive LATE (every round already open) via root gossip from
  // a peer: 1-byte hop count + the signed root envelope.
  const auto gossip_root = [](const SignedMessage& signed_root) {
    std::vector<std::uint8_t> payload{0};
    const std::vector<std::uint8_t> envelope = signed_root.encode();
    payload.insert(payload.end(), envelope.begin(), envelope.end());
    return payload;
  };
  world.sim.schedule(1000, [&world, observer, window_a, window_b,
                            gossip_root] {
    world.sim.send(net::Message{.from = world.providers[1],
                                .to = observer,
                                .channel = kGossipRootChannel,
                                .payload = gossip_root(window_a.signed_root)});
    world.sim.send(net::Message{.from = world.providers[1],
                                .to = observer,
                                .channel = kGossipRootChannel,
                                .payload = gossip_root(window_b.signed_root)});
  });
  world.sim.run();
  return out;
}

TEST(RootAttachmentTest, LateRootAttachesToExactlyItsRoundAmongThousands) {
  RootConflictWorld world = run_root_conflict_world();
  PvrNode& observer = world.handles.world->node(
      world.handles.world->providers[0]);

  // Finalize every open round. Only the target round's window was claimed
  // by the conflicting roots, so exactly ONE equivocation may surface — a
  // root leaking onto any of the other 1199 rounds would show up here.
  for (std::size_t i = 0; i < kOpenRounds; ++i) {
    observer.finalize_round(ProtocolId{
        .prover = world.handles.world->prover,
        .prefix = open_prefix(i),
        .epoch = 1});
  }
  ASSERT_EQ(observer.evidence().size(), 1u);
  const Evidence& conflict = observer.evidence().front();
  EXPECT_EQ(conflict.kind, ViolationKind::kEquivocation);
  EXPECT_EQ(conflict.accused, world.handles.world->prover);
  const Auditor auditor(world.handles.verify_ctx.get());
  EXPECT_TRUE(auditor.validate(conflict));
}

TEST(RootAttachmentTest, OrphanRoundStillGetsSeenRootsAtFinalize) {
  RootConflictWorld world = run_root_conflict_world();
  PvrNode& observer = world.handles.world->node(
      world.handles.world->providers[0]);

  // The orphan round did not exist when the roots arrived; attach_root
  // must have created its state and attached both covering roots then, so
  // finalize still proves the conflict without any deferred scan.
  observer.finalize_round(world.orphan_id);
  ASSERT_EQ(observer.evidence().size(), 1u);
  EXPECT_EQ(observer.evidence().front().kind, ViolationKind::kEquivocation);
  const Auditor auditor(world.handles.verify_ctx.get());
  EXPECT_TRUE(auditor.validate(observer.evidence().front()));
}

}  // namespace
}  // namespace pvr::core
