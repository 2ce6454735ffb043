// Failure injection: PVR under message loss, and gossip flooding behavior.
//
// PVR's liveness checks (missing bundle / missing reveal) must fire when
// the network eats protocol messages, and must never accuse anyone in a
// third-party-provable way (the fault could be the network's).
//
// Rounds here are finalized through engine::VerificationEngine — the
// default verification path for simulator-driven rounds (sequential
// finalize_round is the fallback, covered by tests/core/pvr_node_test).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/evidence.h"
#include "core/pvr_speaker.h"
#include "engine/verification_engine.h"

namespace pvr::core {
namespace {

[[nodiscard]] bgp::Route route_len(std::size_t length, bgp::AsNumber origin_as,
                                   const bgp::Ipv4Prefix& prefix) {
  std::vector<bgp::AsNumber> hops;
  hops.push_back(origin_as);
  for (std::size_t i = 1; i < length; ++i) {
    hops.push_back(static_cast<bgp::AsNumber>(5000 + i));
  }
  return bgp::Route{.prefix = prefix,
                    .path = bgp::AsPath(std::move(hops)),
                    .next_hop = origin_as,
                    .local_pref = 100,
                    .med = 0,
                    .origin = bgp::Origin::kIgp,
                    .communities = {}};
}

TEST(LossyNetworkTest, TotalLossYieldsOnlyLivenessFindings) {
  Figure1Handles handles = make_figure1_world({.seed = 31});
  Figure1World& world = *handles.world;

  // Sever every link from the prover AFTER inputs are sent, so the bundle
  // and reveals never arrive.
  world.sim.schedule(0, [&] {
    const std::vector<std::size_t> lengths = {4, 2, 6};
    for (std::size_t i = 0; i < world.providers.size(); ++i) {
      world.node(world.providers[i])
          .provide_input(world.sim.transport(), 1, handles.prefix,
                         route_len(lengths[i], world.providers[i], handles.prefix));
    }
    world.node(world.prover).start_round(world.sim.transport(), 1, handles.prefix);
  });
  world.sim.schedule(5'000, [&] {  // after inputs (1 ms) but before the
                                   // prover's 10 ms collection window ends
    for (const bgp::AsNumber provider : world.providers) {
      world.sim.disconnect(world.prover, provider);
    }
    world.sim.disconnect(world.prover, world.recipient);
  });
  // The prover will throw when sending on severed links; that is the
  // simulator's contract. Swallow it via a scheduled runner instead: the
  // round is driven by the prover's timer, so run and catch.
  try {
    world.sim.run();
  } catch (const std::logic_error&) {
    // expected: prover tried to send on a severed link
  }

  engine::VerificationEngine engine(4);
  engine::finalize_world_round(engine, world, handles.round_id(1));

  const Auditor auditor(handles.verify_ctx.get());
  for (const bgp::AsNumber provider : world.providers) {
    const auto& evidence = world.node(provider).evidence();
    // Each provider that sent a route and heard nothing reports a liveness
    // fault; none of it is third-party provable.
    ASSERT_FALSE(evidence.empty());
    for (const Evidence& item : evidence) {
      EXPECT_EQ(item.kind, ViolationKind::kMissingReveal);
      EXPECT_FALSE(auditor.validate(item));
    }
  }
}

TEST(LossyNetworkTest, GossipStillCatchesEquivocationWithPartialMesh) {
  // Remove most verifier-mesh links; as long as the verifier gossip graph
  // stays connected, equivocation is still caught by everyone.
  Figure1Setup setup{.seed = 32, .provider_count = 4};
  setup.misbehavior = {.equivocate = true};
  Figure1Handles handles = make_figure1_world(setup);
  Figure1World& world = *handles.world;

  // Reduce the mesh to a line: N1-N2-N3-N4-B.
  std::vector<bgp::AsNumber> verifiers = world.providers;
  verifiers.push_back(world.recipient);
  for (std::size_t i = 0; i < verifiers.size(); ++i) {
    for (std::size_t j = i + 1; j < verifiers.size(); ++j) {
      if (j != i + 1) world.sim.disconnect(verifiers[i], verifiers[j]);
    }
  }

  world.sim.schedule(0, [&] {
    const std::vector<std::size_t> lengths = {3, 4, 5, 6};
    for (std::size_t i = 0; i < world.providers.size(); ++i) {
      world.node(world.providers[i])
          .provide_input(world.sim.transport(), 1, handles.prefix,
                         route_len(lengths[i], world.providers[i], handles.prefix));
    }
    world.node(world.prover).start_round(world.sim.transport(), 1, handles.prefix);
  });
  world.sim.run();

  engine::VerificationEngine engine(4);
  engine::finalize_world_round(engine, world, handles.round_id(1));

  std::size_t detectors = 0;
  for (const bgp::AsNumber verifier : verifiers) {
    const auto& evidence = world.node(verifier).evidence();
    if (std::any_of(evidence.begin(), evidence.end(), [](const Evidence& e) {
          return e.kind == ViolationKind::kEquivocation;
        })) {
      detectors += 1;
    }
  }
  // The line topology relays both signed roots to every verifier.
  EXPECT_EQ(detectors, verifiers.size());
}

TEST(LossyNetworkTest, HonestRoundSurvivesDuplicateDelivery) {
  // Gossip naturally causes each verifier to see the same signed root many
  // times; duplicates must not trigger false equivocation findings.
  Figure1Handles handles = make_figure1_world({.seed = 33, .provider_count = 5});
  Figure1World& world = *handles.world;
  world.sim.schedule(0, [&] {
    for (std::size_t i = 0; i < world.providers.size(); ++i) {
      world.node(world.providers[i])
          .provide_input(world.sim.transport(), 1, handles.prefix,
                         route_len(2 + i, world.providers[i], handles.prefix));
    }
    world.node(world.prover).start_round(world.sim.transport(), 1, handles.prefix);
  });
  world.sim.run();

  engine::VerificationEngine engine(4);
  engine::finalize_world_round(engine, world, handles.round_id(1));

  std::vector<bgp::AsNumber> verifiers = world.providers;
  verifiers.push_back(world.recipient);
  for (const bgp::AsNumber verifier : verifiers) {
    EXPECT_TRUE(world.node(verifier).evidence().empty());
  }
  // Flooding terminated (no infinite gossip storm).
  EXPECT_LT(world.sim.stats().messages_sent, 1000u);
}

}  // namespace
}  // namespace pvr::core
