// Engine-vs-sequential parity over a concurrent multi-prefix workload: the
// engine at any worker count must produce byte-identical per-node evidence
// to the sequential finalize_round fallback, with two prefixes of the same
// epoch in flight (workers run them in parallel) and an equivocating prover
// supplying non-trivial evidence.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "core/evidence.h"
#include "core/pvr_speaker.h"
#include "crypto/commitment.h"
#include "engine/verification_engine.h"

namespace pvr::engine {
namespace {

using core::Evidence;
using core::Figure1Handles;
using core::Figure1Setup;
using core::Figure1World;
using core::ProtocolId;

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

// Identical (same-seed) worlds replay byte-identical message histories, so
// any evidence divergence below is the finalize path's fault.
[[nodiscard]] Figure1Handles run_two_prefix_equivocation_world() {
  Figure1Setup setup{.seed = 34, .provider_count = 4};
  setup.misbehavior = {.equivocate = true};
  Figure1Handles handles = core::make_figure1_world(setup);
  Figure1World& world = *handles.world;
  const bgp::Ipv4Prefix prefix_b = bgp::Ipv4Prefix::parse("198.51.100.0/24");

  world.sim.schedule(0, [&world, &handles, prefix_b] {
    const std::vector<std::size_t> lengths_a = {3, 4, 5, 6};
    const std::vector<std::size_t> lengths_b = {6, 2, 7, 4};
    for (std::size_t i = 0; i < world.providers.size(); ++i) {
      const bgp::AsNumber provider = world.providers[i];
      world.node(provider).provide_input(
          world.sim.transport(), 1, handles.prefix,
          route_len(lengths_a[i], provider, handles.prefix));
      world.node(provider).provide_input(
          world.sim.transport(), 1, prefix_b, route_len(lengths_b[i], provider, prefix_b));
    }
    world.node(world.prover).start_round(world.sim.transport(), 1, handles.prefix);
    world.node(world.prover).start_round(world.sim.transport(), 1, prefix_b);
  });
  world.sim.run();
  return handles;
}

[[nodiscard]] std::string evidence_fingerprint(const std::vector<Evidence>& log) {
  std::string out;
  for (const Evidence& item : log) {
    out += item.to_string() + "\n";
    for (const core::SignedMessage& message : item.messages) {
      out += crypto::to_hex(message.encode()) + "\n";
    }
  }
  return out;
}

TEST(MultiPrefixParityTest, EngineMatchesSequentialAt1_2_8Workers) {
  Figure1Handles sequential = run_two_prefix_equivocation_world();
  const ProtocolId id_a = sequential.round_id(1);
  const ProtocolId id_b{.prover = sequential.world->prover,
                        .prefix = bgp::Ipv4Prefix::parse("198.51.100.0/24"),
                        .epoch = 1};

  std::vector<bgp::AsNumber> verifiers = sequential.world->providers;
  verifiers.push_back(sequential.world->recipient);
  for (const bgp::AsNumber verifier : verifiers) {
    sequential.world->node(verifier).finalize_round(id_a);
    sequential.world->node(verifier).finalize_round(id_b);
    ASSERT_FALSE(sequential.world->node(verifier).evidence().empty())
        << "equivocation must be visible to verifier " << verifier;
  }

  for (const std::size_t workers : {1u, 2u, 8u}) {
    Figure1Handles engined = run_two_prefix_equivocation_world();
    VerificationEngine engine(workers);
    // Same submission order as the sequential loop: per verifier, round A
    // then round B — drain applies findings in submission order.
    for (const bgp::AsNumber verifier : verifiers) {
      EXPECT_TRUE(engine.submit_node_round(engined.world->node(verifier), id_a));
      EXPECT_TRUE(engine.submit_node_round(engined.world->node(verifier), id_b));
    }
    const EngineReport report = engine.drain();
    EXPECT_EQ(report.rounds, verifiers.size() * 2);

    std::size_t total = 0;
    std::size_t equivocations = 0;
    for (const bgp::AsNumber verifier : verifiers) {
      const std::vector<Evidence>& evidence =
          engined.world->node(verifier).evidence();
      EXPECT_EQ(evidence_fingerprint(evidence),
                evidence_fingerprint(sequential.world->node(verifier).evidence()))
          << "verifier " << verifier << " at " << workers << " workers";
      total += evidence.size();
      for (const Evidence& item : evidence) {
        if (item.kind == core::ViolationKind::kEquivocation) equivocations += 1;
      }
    }
    EXPECT_EQ(total, report.violations);
    EXPECT_GT(equivocations, 0u);
  }
}

// The deferred form of a round: one closure per node-round, which yields
// exactly the findings of the sequential finalize_round. This is the task
// the engine's workers run.
TEST(MultiPrefixParityTest, SplitChecksFoldToSequentialFindings) {
  Figure1Handles sequential = run_two_prefix_equivocation_world();
  Figure1Handles split = run_two_prefix_equivocation_world();
  const ProtocolId id = sequential.round_id(1);

  for (const bgp::AsNumber verifier : sequential.world->providers) {
    core::PvrNode& split_node = split.world->node(verifier);
    const std::function<core::RoundFindings()> check =
        split_node.defer_finalize_checks(id);
    ASSERT_TRUE(check);
    // A second defer must refuse: the round is finalized.
    EXPECT_FALSE(split_node.defer_finalize_checks(id));
    split_node.apply_round_findings(id, check());

    sequential.world->node(verifier).finalize_round(id);
    EXPECT_EQ(evidence_fingerprint(split_node.evidence()),
              evidence_fingerprint(sequential.world->node(verifier).evidence()))
        << "verifier " << verifier;
  }
}

// A round with a large observed-root set: its O(pairs) equivocation
// checks all run in the round's one deferred closure, byte-identical to
// the sequential path.
TEST(MultiPrefixParityTest, ChunkedPairChecksBoundTasksAndFoldIdentically) {
  // + the honest window = 11 roots -> 55 pairs.
  constexpr std::size_t kVariants = 10;
  constexpr bgp::AsNumber kVerifier = 300;

  // Crafts kVariants distinct statement sets for round `id`, each sealed
  // under its own signed window root, and injects them into the verifier
  // on pvr.bundle.agg as if an equivocating prover had sent them; identical
  // seeds make the two worlds' states byte-identical.
  const auto inject_variants = [](Figure1Handles& handles,
                                  const ProtocolId& id) {
    crypto::Drbg rng(99, "chunk-test-variants");
    core::PvrNode& node = handles.world->node(kVerifier);
    const auto& prover_key = handles.keys->private_keys.at(id.prover).priv;
    for (std::size_t v = 0; v < kVariants; ++v) {
      const core::ProverResult variant = core::run_prover(
          id, core::OperatorKind::kMinimum, {}, 4, rng, {});
      const core::AggregatedBundleMessage agg =
          core::seal_window(id.prover, id.epoch, /*batch=*/0, 0,
                            std::span(&variant, 1), prover_key, rng)
              .honest.message_for_recipient();
      node.on_message(handles.world->sim.transport(),
                      net::Message{.from = id.prover,
                                   .to = kVerifier,
                                   .channel = core::kBundleAggChannel,
                                   .payload = agg.encode()});
    }
  };
  const auto make_world = [&] {
    Figure1Handles handles =
        core::make_figure1_world({.seed = 52, .provider_count = 4});
    Figure1World& world = *handles.world;
    world.sim.schedule(0, [&world, &handles] {
      for (std::size_t i = 0; i < world.providers.size(); ++i) {
        world.node(world.providers[i])
            .provide_input(world.sim.transport(), 1, handles.prefix,
                           route_len(3 + i, world.providers[i], handles.prefix));
      }
      world.node(world.prover).start_round(world.sim.transport(), 1, handles.prefix);
    });
    world.sim.run();
    inject_variants(handles, handles.round_id(1));
    return handles;
  };

  Figure1Handles sequential = make_world();
  Figure1Handles chunked = make_world();
  const ProtocolId id = sequential.round_id(1);

  sequential.world->node(kVerifier).finalize_round(id);
  ASSERT_FALSE(sequential.world->node(kVerifier).evidence().empty());

  // 11 observed roots -> 55 pairs, plus the role check, in one closure.
  core::PvrNode& node = chunked.world->node(kVerifier);
  const std::function<core::RoundFindings()> check =
      node.defer_finalize_checks(id);
  ASSERT_TRUE(check);
  node.apply_round_findings(id, check());

  EXPECT_EQ(evidence_fingerprint(node.evidence()),
            evidence_fingerprint(
                sequential.world->node(kVerifier).evidence()));
}

}  // namespace
}  // namespace pvr::engine
